(* Fixture: the names a manifest entry may point at — a function, a
   let-bound atomic, a declared record label and a label filled by a
   record expression.  [retired] and [deques] are bound nowhere. *)

type pool = { mutable busy : int; remaining : int Atomic.t }

let cursor = Atomic.make 0

let rec claim n =
  if Atomic.fetch_and_add cursor 1 < n then claim n

let create n = { busy = 0; remaining = Atomic.make n }
