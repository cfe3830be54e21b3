(* Single definition of the canonical read key.  Both memoization
   layers — the auditor's result cache and the audit dedup index — key
   their tables through here, so a change to query canonicalization
   cannot silently diverge the two. *)

let of_query = Canonical.of_query
let digest = Canonical.query_digest
let versioned ~version q = (version, of_query q)
