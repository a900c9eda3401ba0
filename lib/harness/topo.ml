module G = Colring_graph.Gtopology
module Rng = Colring_stats.Rng

type t =
  | Ring of int option
  | Theta of int
  | K4
  | Bowtie
  | Random2ec of { n : int; seed : int }

let to_string = function
  | Ring None -> "ring"
  | Ring (Some n) -> Printf.sprintf "ring:%d" n
  | Theta n -> Printf.sprintf "theta:%d" n
  | K4 -> "k4"
  | Bowtie -> "bowtie"
  | Random2ec { n; seed } -> Printf.sprintf "random2ec:%d:%d" n seed

let is_ring = function Ring _ -> true | _ -> false

let syntax =
  "expected ring[:N], theta:N, k4, bowtie (alias two-ear), or random2ec:N:SEED"

let parse s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_field name v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> err "--topology %s: %s %S is not an integer" s name v
  in
  let ( let* ) = Result.bind in
  (* The cap of a batch spec line's n ({!Batch.max_n}): past it no
     election fits the engines' default delivery budget, and building
     the graph alone can take minutes and gigabytes. *)
  let size_field name v =
    let* n = int_field name v in
    if n > Batch.max_n then
      err "--topology %s: %s must be <= %d, got %d" s name Batch.max_n n
    else Ok n
  in
  match String.split_on_char ':' s with
  | [ "ring" ] -> Ok (Ring None)
  | [ "ring"; n ] ->
      let* n = size_field "ring size" n in
      if n >= 2 then Ok (Ring (Some n))
      else err "--topology %s: ring size must be at least 2" s
  | [ "theta"; n ] ->
      let* n = size_field "node count" n in
      if n >= 4 then Ok (Theta n)
      else err "--topology %s: a theta graph needs at least 4 nodes" s
  | [ "k4" ] -> Ok K4
  | [ "bowtie" ] | [ "two-ear" ] -> Ok Bowtie
  | [ "random2ec"; n; seed ] ->
      let* n = size_field "node count" n in
      let* seed = int_field "seed" seed in
      if n >= 4 then Ok (Random2ec { n; seed })
      else err "--topology %s: random2ec needs at least 4 nodes" s
  | _ -> err "--topology %s: %s" s syntax

let node_count ~default_n = function
  | Ring None -> default_n
  | Ring (Some n) -> n
  | Theta n -> n
  | K4 -> 4
  | Bowtie -> 5
  | Random2ec { n; _ } -> n

let materialize ~default_n = function
  | Ring _ as t -> G.ring (node_count ~default_n t)
  | Theta n ->
      (* n nodes total: two hubs plus n-2 inner nodes spread as evenly
         as possible over the three paths (at most one path empty). *)
      let inner = n - 2 in
      G.theta ((inner + 2) / 3) ((inner + 1) / 3) (inner / 3)
  | K4 -> G.complete 4
  | Bowtie -> G.bowtie ()
  | Random2ec { n; seed } ->
      G.cycle_with_chords (Rng.create ~seed) ~n ~chords:(1 + (n / 4))
