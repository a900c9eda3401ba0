(* Clean as lib/engine/network.ml: allocation in a hot function is fine
   behind the live-sink guard, and cold functions may allocate
   freely.  Hot-function parameters are not closures. *)
type q = { mutable observed : bool }

let push q x =
  if q.observed then ignore (q, x);
  x + 1

let cold q x = ignore (q, x)
