(* Fires [determinism] (twice), wherever it is linted as. *)
let now () = Unix.gettimeofday ()
let cpu () = Sys.time ()
