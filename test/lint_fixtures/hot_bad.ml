(* Fires [hot-alloc] when linted as lib/engine/network.ml (where the test
   manifest lists [push] and [pop]): a tuple, a closure, a
   formatting call, and a partial application of a same-file
   function. *)
let helper a b c = a + b + c

let push q x =
  let pair = (q, x) in
  ignore pair;
  let f = fun y -> y + x in
  ignore f;
  Printf.printf "%d" x

let pop q = ignore (helper q 1)
