type t = {
  window : float;
  samples : (float * float) Queue.t;
  (* The retained values in ascending [Float.compare] order (the order
     of polymorphic [compare] on floats) in [sorted.(0 .. count - 1)];
     the slots past the count are spare capacity. *)
  mutable sorted : float array;
  mutable last_time : float;
  mutable sum : float;
}

let create ~window () =
  if not (window > 0.0) then invalid_arg "Rolling.create: window must be positive";
  {
    window;
    samples = Queue.create ();
    sorted = Array.make 16 0.0;
    last_time = neg_infinity;
    sum = 0.0;
  }

let window t = t.window
let count t = Queue.length t.samples

(* First index in [sorted.(0 .. n - 1)] whose value is not below [v]. *)
let lower_bound t n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Float.compare t.sorted.(mid) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let insert t v =
  let n = count t in
  if n = Array.length t.sorted then begin
    let grown = Array.make (2 * n) 0.0 in
    Array.blit t.sorted 0 grown 0 n;
    t.sorted <- grown
  end;
  let i = lower_bound t n v in
  Array.blit t.sorted i t.sorted (i + 1) (n - i);
  t.sorted.(i) <- v

(* Called after the sample left the queue, so [count t] is the number
   of values still sorted besides [v]. *)
let remove t v =
  let n = count t in
  let i = lower_bound t (n + 1) v in
  Array.blit t.sorted (i + 1) t.sorted i (n - i)

let evict t ~now =
  let cutoff = now -. t.window in
  let rec loop () =
    match Queue.peek_opt t.samples with
    | Some (ts, v) when ts < cutoff ->
      ignore (Queue.pop t.samples);
      t.sum <- t.sum -. v;
      remove t v;
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
  insert t v;
  Queue.add (time, v) t.samples;
  t.sum <- t.sum +. v;
  evict t ~now:time

let sum t = t.sum
let mean t = if Queue.is_empty t.samples then None else Some (t.sum /. float_of_int (count t))

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Rolling.percentile: p outside [0,100]";
  let n = count t in
  if n = 0 then None
  else begin
    (* nearest-rank: smallest value with at least p% of samples <= it *)
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    Some t.sorted.(idx)
  end
