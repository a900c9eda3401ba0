type line = { slope : float; intercept : float; r2 : float }

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let linear pts =
  let n = float_of_int (List.length pts) in
  if List.length pts < 2 then invalid_arg "Fit.linear: need >= 2 points";
  let sx = sum fst pts and sy = sum snd pts in
  let sxx = sum (fun (x, _) -> x *. x) pts in
  let sxy = sum (fun (x, y) -> x *. y) pts in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Fit.linear: constant x";
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  let mean_y = sy /. n in
  let ss_tot = sum (fun (_, y) -> (y -. mean_y) ** 2.) pts in
  let ss_res =
    sum (fun (x, y) -> (y -. ((slope *. x) +. intercept)) ** 2.) pts
  in
  let r2 = if ss_tot < 1e-12 then 1. else 1. -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

let proportional pts =
  let sxy = sum (fun (x, y) -> x *. y) pts in
  let sxx = sum (fun (x, _) -> x *. x) pts in
  if sxx < 1e-12 then invalid_arg "Fit.proportional: x all zero";
  sxy /. sxx

let loglog_slope pts =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0. && y > 0. then Some (log x, log y) else None)
      pts
  in
  (linear pts).slope

let max_rel_err pairs =
  List.fold_left
    (fun acc (expected, actual) ->
      let scale = Float.max 1. (Float.abs expected) in
      Float.max acc (Float.abs (actual -. expected) /. scale))
    0. pairs
