open Colring_engine
module Election = Colring_core.Election
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
   bounds what one spec line can make a warm flock allocate (a
   256-slot flock at n = 4096 is about 0.75 GB). *)
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

(* All instances in a flock share one topology, so non-oriented jobs
   of ring size [n] share one scramble drawn from [n] (unlike
   [colring elect], whose scramble is drawn per run from its seed —
   batches are "many elections on the same ring"). *)
let topology ~oriented ~n =
  if oriented then Topology.oriented n
  else Topology.random_non_oriented (Rng.create ~seed:n) n

type outcome = {
  reports : Election.report array;
  latencies : float array;
  elapsed : float;
}

(* One wave: consecutive jobs of one topology group, at most the
   flock's slot count, all run on whichever domain claims the wave. *)
type wave = { w_oriented : bool; w_n : int; w_idxs : int array }

let waves_of_specs specs ~slots =
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i s ->
      let key = (oriented_algorithm s.algorithm, s.n) in
      match Hashtbl.find_opt groups key with
      | Some r -> r := i :: !r
      | None ->
          Hashtbl.add groups key (ref [ i ]);
          order := key :: !order)
    specs;
  let waves = ref [] in
  List.iter
    (fun ((oriented, n) as key) ->
      let idxs = Array.of_list (List.rev !(Hashtbl.find groups key)) in
      let count = Array.length idxs in
      let w = ref 0 in
      while !w < count do
        let len = min slots (count - !w) in
        waves :=
          { w_oriented = oriented; w_n = n; w_idxs = Array.sub idxs !w len }
          :: !waves;
        w := !w + len
      done)
    (List.rev !order);
  Array.of_list (List.rev !waves)

(* Flocks are single-domain state, so each domain keeps its own cache
   of one warm flock per (oriented, n) group — the steady state of a
   long batch or a job server reloads slots instead of allocating. *)
let flock_cache : (bool * int, Flock.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let flock_for ~slots ~oriented ~n =
  let cache = Domain.DLS.get flock_cache in
  match Hashtbl.find_opt cache (oriented, n) with
  | Some fl -> fl
  | None ->
      let fl = Flock.create ~slots (topology ~oriented ~n) in
      Hashtbl.add cache (oriented, n) fl;
      fl

let run ?(jobs = 1) ?(mode = Pool.Static) ?(slots = 256) ?(events = false)
    ?journal ?now ~sched specs =
  let count = Array.length specs in
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
  let sink_for i =
    match journal with
    | Some _ -> Sink.jsonl_buffer ~events buffers.(i)
    | None -> Sink.null
  in
  let waves = waves_of_specs specs ~slots in
  let run_wave w =
    let wave = waves.(w) in
    let fl = flock_for ~slots ~oriented:wave.w_oriented ~n:wave.w_n in
    let wjobs =
      Array.map
        (fun i ->
          let s = specs.(i) in
          Election.job ~seed:s.seed ~sink:(sink_for i) s.algorithm
            ~ids:(ids_of_spec s) ~sched:(sched s.seed))
        wave.w_idxs
    in
    let on_complete =
      match now with
      | None -> None
      | Some f ->
          Some (fun local _report -> latencies.(wave.w_idxs.(local)) <- f () -. t0)
    in
    let rs =
      try
        Election.run_flock ~flock:fl ?on_complete
          ~topo:(Flock.topology fl) wjobs
      with e ->
        (* A job that raised left this flock's slots running: drop it,
           so the group's next wave starts on a fresh one. *)
        Hashtbl.remove (Domain.DLS.get flock_cache)
          (wave.w_oriented, wave.w_n);
        raise e
    in
    Array.iteri (fun local r -> reports.(wave.w_idxs.(local)) <- Some r) rs
  in
  Pool.run ~mode ~chunk:1 ~jobs (Array.length waves) run_wave;
  (match journal with
  | None -> ()
  | Some emit -> Array.iteri (fun i b -> emit i (Buffer.contents b)) buffers);
  {
    reports =
      Array.map
        (function Some r -> r | None -> assert false (* every wave ran *))
        reports;
    latencies;
    elapsed = (match now with Some f -> f () -. t0 | None -> 0.);
  }

let percentile sorted p =
  let m = Array.length sorted in
  if m = 0 then 0.
  else sorted.(min (m - 1) (int_of_float (p *. float_of_int m)))
