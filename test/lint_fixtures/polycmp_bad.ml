(* Fires [poly-compare] five times when linted under lib/engine/. *)
let c1 a b = compare a b
let c2 a b = Stdlib.compare a b
let e1 (a : int list) b = a = b
let e2 = ( = )
let m1 (a : int) b = max a b
