type t = P0 | P1

let opposite = function P0 -> P1 | P1 -> P0
let index = function P0 -> 0 | P1 -> 1

let of_index = function
  | 0 -> P0
  | 1 -> P1
  | i -> invalid_arg (Printf.sprintf "Port.of_index: %d" i)

let equal a b = Int.equal (index a) (index b)
let to_string = function P0 -> "Port0" | P1 -> "Port1"
let pp ppf p = Format.pp_print_string ppf (to_string p)
