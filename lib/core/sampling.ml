module Rng = Colring_stats.Rng

let bit_length rng ~c =
  if not (c > 0.) then invalid_arg "Sampling.bit_length: c must be positive";
  let p = 1. -. (2. ** (-1. /. (c +. 2.))) in
  (* Past c ~ 2^53 [p] rounds to 0; the law's mean (c+2)/ln 2 is far
     beyond the cap there, so the draw is the cap. *)
  if p <= 0. then 62 else min 62 (Rng.geometric rng ~p)

let sample rng ~c = 1 + Rng.bits rng (bit_length rng ~c)

let sample_ring rng ~c ~n =
  if n < 1 then invalid_arg "Sampling.sample_ring: n must be >= 1";
  Array.init n (fun v -> sample (Rng.split_at rng v) ~c)

let max_is_unique ids =
  let m = Array.fold_left max min_int ids in
  Array.fold_left (fun acc x -> if x = m then acc + 1 else acc) 0 ids = 1
