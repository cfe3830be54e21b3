(* Reference rolling window for differential tests: the original
   [Secrep_sim.Rolling] that the sorted-array window replaced.  It
   keeps only the arrival-order queue and a running sum, and
   [percentile] copies the retained values into a fresh array and
   sorts it with [Array.sort compare] on every call, so it is slow but
   obviously right.  Its [create] keeps the original [window <= 0.0]
   guard, which lets a NaN window through; the differential tests only
   use positive windows. *)

type t = {
  window : float;
  samples : (float * float) Queue.t;
  mutable last_time : float;
  mutable sum : float;
}

let create ~window () =
  if window <= 0.0 then invalid_arg "Rolling.create: window must be positive";
  { window; samples = Queue.create (); last_time = neg_infinity; sum = 0.0 }

let window t = t.window

let evict t ~now =
  let cutoff = now -. t.window in
  let rec loop () =
    match Queue.peek_opt t.samples with
    | Some (ts, v) when ts < cutoff ->
      ignore (Queue.pop t.samples);
      t.sum <- t.sum -. v;
      loop ()
    | _ -> ()
  in
  loop ()

let advance t ~now =
  if now < t.last_time then invalid_arg "Rolling.advance: time went backwards";
  t.last_time <- now;
  evict t ~now

let record t ~time v =
  if time < t.last_time then invalid_arg "Rolling.record: time went backwards";
  t.last_time <- time;
  Queue.add (time, v) t.samples;
  t.sum <- t.sum +. v;
  evict t ~now:time

let count t = Queue.length t.samples
let sum t = t.sum
let mean t = if Queue.is_empty t.samples then None else Some (t.sum /. float_of_int (count t))

let values t =
  let a = Array.make (count t) 0.0 in
  let i = ref 0 in
  Queue.iter
    (fun (_, v) ->
      a.(!i) <- v;
      incr i)
    t.samples;
  a

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Rolling.percentile: p outside [0,100]";
  let a = values t in
  let n = Array.length a in
  if n = 0 then None
  else begin
    Array.sort compare a;
    (* nearest-rank: smallest value with at least p% of samples <= it *)
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    Some a.(idx)
  end
