open Colring_engine
module Election = Colring_core.Election
module Gelection = Colring_graph.Gelection
module Gnetwork = Colring_graph.Gnetwork
module Ids = Colring_core.Ids
module Pool = Colring_runtime.Pool
module Rng = Colring_stats.Rng

type spec = {
  algorithm : Election.algorithm;
  n : int;
  seed : int;
  id_max : int;
}

let algorithm_of_name = function
  | "algo1" -> Ok Election.Algo1
  | "algo2" -> Ok Election.Algo2
  | "algo3-doubled" -> Ok (Election.Algo3 Colring_core.Algo3.Doubled)
  | "algo3-improved" -> Ok (Election.Algo3 Colring_core.Algo3.Improved)
  | "resample" -> Ok Election.Algo3_resample
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)

(* Past these, no Algorithm 2 election fits the engines' default
   budget of 50M deliveries (it costs n(2·id_max+1) pulses, and
   id_max >= n): a 4096-ring at id_max = n needs 33.6M, an 8192-ring
   134M, and a 2-ring at id_max = 2^24 already 67M.  [max_n] also
   bounds what one spec line can make a warm core allocate. *)
let max_n = 4096
let max_id_max = 1 lsl 24

let parse_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | algo :: n :: seed :: rest -> (
      match algorithm_of_name algo with
      | Error msg -> Error msg
      | Ok algorithm -> (
          let int_of name s =
            match int_of_string_opt s with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "%s must be an integer, got %S" name s)
          in
          let ( let* ) = Result.bind in
          let* n = int_of "n" n in
          let* seed = int_of "seed" seed in
          let* id_max =
            match rest with
            | [] -> Ok (2 * n)
            | [ m ] -> int_of "id_max" m
            | _ -> Error "too many fields (want: algo n seed [id_max])"
          in
          if n < 2 then Error "n must be >= 2"
          else if n > max_n then
            Error (Printf.sprintf "n must be <= %d, got %d" max_n n)
          else if id_max < n then Error "id_max must be >= n"
          else if id_max > max_id_max then
            Error
              (Printf.sprintf "id_max must be <= %d, got %d" max_id_max id_max)
          else Ok (Some { algorithm; n; seed; id_max })))
  | _ -> Error "too few fields (want: algo n seed [id_max])"

let parse_spec text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest -> (
        match parse_line line with
        | Ok None -> go acc (lineno + 1) rest
        | Ok (Some s) -> go (s :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go [] 1 lines

let ids_of_spec s =
  Ids.distinct (Rng.create ~seed:s.seed) ~n:s.n ~id_max:s.id_max

let oriented_algorithm = function
  | Election.Algo1 | Election.Algo2 -> true
  | Election.Algo3 _ | Election.Algo3_resample -> false

(* Every job of a group runs on the same warm core, so non-oriented
   jobs of ring size [n] share one scramble drawn from [n] (unlike
   [colring elect], whose scramble is drawn per run from its seed —
   batches are "many elections on the same ring"). *)
let topology ~oriented ~n =
  if oriented then Topology.oriented n
  else Topology.random_non_oriented (Rng.create ~seed:n) n

type 'r outcome = {
  reports : 'r array;
  latencies : float array;
  elapsed : float;
}

(* A core is single-domain state, so each domain keeps its own warm
   cores: the steady state of a long batch, or of a job server whose
   pool keeps its domains, resets a core instead of building one.  A
   job that raised leaves its core mid-run; the next job's reset
   cleans it like any other.  Rings keep one core per (oriented, n)
   group, graphs one for the last graph a domain ran. *)
let ring_cores : (bool * int, Network.pulse Network.t) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let ring_core ~oriented ~n =
  let cache = Domain.DLS.get ring_cores in
  match Hashtbl.find_opt cache (oriented, n) with
  | Some net -> net
  | None ->
      let net =
        Network.create (topology ~oriented ~n) (fun _ -> Network.silent_program)
      in
      Hashtbl.add cache (oriented, n) net;
      net

let graph_cores : Network.pulse Gnetwork.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let graph_core g =
  let slot = Domain.DLS.get graph_cores in
  match !slot with
  | Some net when Gnetwork.topology net == g -> net
  | Some _ | None ->
      let net = Gnetwork.create g (fun _ -> Network.silent_program) in
      slot := Some net;
      net

(* The one job runner, for batch, serve and both sweeps: [job i sink]
   runs job [i] against [sink].  Each job journals into a private
   buffer; the buffers go to [journal] in job order once the pool has
   drained, so nothing the caller sees depends on which domain ran
   what. *)
let dispatch ?(jobs = 1) ?pool ?(events = false) ?journal ?now count job =
  let t0 = match now with Some f -> f () | None -> 0. in
  let reports = Array.make count None in
  let latencies =
    match now with Some _ -> Array.make count 0. | None -> [||]
  in
  let buffers =
    match journal with
    | Some _ -> Array.init count (fun _ -> Buffer.create 256)
    | None -> [||]
  in
  let run_job i =
    let sink =
      match journal with
      | Some _ -> Sink.jsonl_buffer ~events buffers.(i)
      | None -> Sink.null
    in
    reports.(i) <- Some (job i sink);
    match now with Some f -> latencies.(i) <- f () -. t0 | None -> ()
  in
  (match pool with
  | Some pool -> Pool.exec ~chunk:1 pool count run_job
  | None -> Pool.run ~chunk:1 ~jobs count run_job);
  (match journal with
  | None -> ()
  | Some emit -> Array.iteri (fun i b -> emit i (Buffer.contents b)) buffers);
  {
    reports =
      Array.map
        (function Some r -> r | None -> assert false (* every job ran *))
        reports;
    latencies;
    elapsed = (match now with Some f -> f () -. t0 | None -> 0.);
  }

let run ?jobs ?pool ?events ?journal ?now ~sched specs =
  dispatch ?jobs ?pool ?events ?journal ?now (Array.length specs)
    (fun i sink ->
      let s = specs.(i) in
      let net = ring_core ~oriented:(oriented_algorithm s.algorithm) ~n:s.n in
      Election.run_warm ~seed:s.seed ~sink net s.algorithm ~ids:(ids_of_spec s)
        ~sched:(sched s.seed))

let run_graph ?jobs ?events ?journal ?now ~workload ~sched plan specs =
  let g = Colring_graph.Ears.topo (Gelection.decomposition plan) in
  let n = Colring_graph.Gtopology.n g in
  dispatch ?jobs ?events ?journal ?now (Array.length specs) (fun i sink ->
      let s = specs.(i) in
      let ids =
        Ids.distinct (Rng.create ~seed:s.seed) ~n ~id_max:(max n s.id_max)
      in
      Gelection.run_warm ~seed:s.seed ~sink ~workload (graph_core g) plan ~ids
        ~sched:(sched s.seed))

let percentile sorted p =
  let m = Array.length sorted in
  if m = 0 then 0.
  else sorted.(min (m - 1) (int_of_float (p *. float_of_int m)))
