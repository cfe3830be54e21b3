(* Print the MD5 of each file argument, one "HEX  NAME" line per file:
   the golden CLI rules compare digests of the large trace, metrics and
   lineage dumps instead of their full text. *)

let () =
  Array.iteri
    (fun i path -> if i > 0 then Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file path)) path)
    Sys.argv
