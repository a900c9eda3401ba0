open Colring_engine
open Colring_core
module Rng = Colring_stats.Rng
module Summary = Colring_stats.Summary

type measurement = {
  algorithm : string;
  workload : string;
  n : int;
  id_max : int;
  seed : int;
  scheduler : string;
  sends : int;
  expected : int;
  deliveries : int;
  ok : bool;
}

let compatible algorithm (workload : Workload.t) =
  match algorithm with
  | Election.Algo1 | Election.Algo2 -> workload.oriented
  | Election.Algo3 _ | Election.Algo3_resample -> true

(* One grid cell, fully described by its coordinates: a cell
   regenerates its own instance from the (seed, n) stream, so cells are
   self-contained jobs that can run on any domain in any order. *)
type cell = {
  c_algorithm : Election.algorithm;
  c_workload : Workload.t;
  c_n : int;
  c_seed : int;
  c_algo_ix : int;
  c_sched_ix : int;
}

(* Cells whose instance has a larger ID_max are skipped: anonymous
   workloads can sample enormous ids, and a run costs Θ(n·ID_max). *)
let id_max_cap = 100_000

(* A cell's measurement, [None] when it was skipped.  [sink] is the
   private one {!Batch.dispatch} hands the cell, so a skipped cell
   journals nothing.  Each cell builds a fresh network: a non-oriented
   cell's workload draws its own port flips. *)
let run_cell ~schedulers ~sink cell =
  let { c_algorithm; c_workload; c_n = n; c_seed = seed; c_algo_ix; c_sched_ix }
      =
    cell
  in
  let rng = Rng.create ~seed:(seed + (n * 65_537)) in
  let ids, topo = c_workload.generate rng ~n in
  if Ids.id_max ids > id_max_cap then None
  else begin
    (* After [generate] the stream state encodes (workload, n, seed);
       folding the (algorithm, scheduler) coordinates in via [split_at]
       gives every cell its own adversary stream. *)
    let sched_seed =
      Rng.bits
        (Rng.split_at rng ((c_algo_ix * Array.length schedulers) + c_sched_ix))
        62
    in
    let sched = schedulers.(c_sched_ix) sched_seed in
    let r =
      Election.run_report c_algorithm ~topo ~ids ~sched ~sink ~seed
        ~workload:c_workload.name
    in
    Some
      {
        algorithm = Election.algorithm_name c_algorithm;
        workload = c_workload.name;
        n;
        id_max = r.id_max;
        seed;
        scheduler = sched.Scheduler.name;
        sends = r.sends;
        expected = r.expected_sends;
        deliveries = r.deliveries;
        ok = Election.ok r;
      }
  end

let election ?(jobs = 1) ?journal ~algorithms ~workloads ~ns ~seeds ~schedulers
    () =
  let schedulers = Array.of_list schedulers in
  let n_sched = Array.length schedulers in
  (* Materialize the grid in the canonical nested order; the result
     array is indexed by this enumeration, so the output order (and
     content — every cell owns its RNG streams) is independent of the
     domain count. *)
  let cells = ref [] in
  List.iteri
    (fun c_algo_ix c_algorithm ->
      List.iter
        (fun (c_workload : Workload.t) ->
          if compatible c_algorithm c_workload then
            List.iter
              (fun c_n ->
                List.iter
                  (fun c_seed ->
                    for c_sched_ix = 0 to n_sched - 1 do
                      cells :=
                        {
                          c_algorithm;
                          c_workload;
                          c_n;
                          c_seed;
                          c_algo_ix;
                          c_sched_ix;
                        }
                        :: !cells
                    done)
                  seeds)
              ns)
        workloads)
    algorithms;
  let cells = Array.of_list (List.rev !cells) in
  (* Lifecycle records only: a sweep journal is one
     run_start/snapshots/run_end block per cell, not the Θ(n·ID_max)
     event stream of every cell. *)
  (Batch.dispatch ~jobs ?journal:(Option.map (fun w _ -> w) journal)
     (Array.length cells) (fun i sink ->
       run_cell ~schedulers ~sink cells.(i)))
    .reports
  |> Array.to_list |> List.filter_map Fun.id

(* ------------------------------------------------------------------ *)
(* The graph sweep: walk election over topology families *)

type gmeasurement = {
  g_topology : string;
  g_n : int;
  g_covered : int;
  g_walk_len : int;
  g_id_max : int;
  g_seed : int;
  g_scheduler : string;
  g_sends : int;
  g_expected : int;
  g_deliveries : int;
  g_ok : bool;
}

(* One walk-election cell, self-contained like its ring counterpart:
   ids regenerate from the (topology, seed) stream and the scheduler
   seed folds in the scheduler index via [split_at], so the grid is
   bit-identical for every [jobs] value.  [plan] is built once per
   topology and shared read-only by its cells. *)
let run_gcell ~schedulers ~sink ((name, n, plan), seed, sched_ix) =
  let rng = Rng.create ~seed:(seed + (n * 65_537)) in
  let ids = Ids.distinct rng ~n ~id_max:(2 * n) in
  let sched_seed = Rng.bits (Rng.split_at rng sched_ix) 62 in
  let sched = (schedulers : _ array).(sched_ix) sched_seed in
  let r =
    Colring_graph.Gelection.run_report plan ~ids ~sched ~sink ~seed
      ~workload:name
  in
  {
    g_topology = name;
    g_n = n;
    g_covered = r.Colring_graph.Gelection.covered;
    g_walk_len = r.walk_len;
    g_id_max = r.id_max;
    g_seed = seed;
    g_scheduler = sched.Scheduler.name;
    g_sends = r.sends;
    g_expected = r.expected_sends;
    g_deliveries = r.deliveries;
    g_ok = Colring_graph.Gelection.ok r;
  }

let gelection ?(jobs = 1) ?journal ~topologies ~seeds ~schedulers () =
  let schedulers = Array.of_list schedulers in
  let cells = ref [] in
  List.iter
    (fun topo_spec ->
      let g = Topo.materialize ~default_n:8 topo_spec in
      let topo =
        ( Topo.to_string topo_spec,
          Colring_graph.Gtopology.n g,
          Colring_graph.Gelection.plan g )
      in
      List.iter
        (fun seed ->
          for sched_ix = 0 to Array.length schedulers - 1 do
            cells := (topo, seed, sched_ix) :: !cells
          done)
        seeds)
    topologies;
  let cells = Array.of_list (List.rev !cells) in
  (Batch.dispatch ~jobs ?journal:(Option.map (fun w _ -> w) journal)
     (Array.length cells) (fun i sink ->
       run_gcell ~schedulers ~sink cells.(i)))
    .reports
  |> Array.to_list

let gelection_to_csv ms =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "topology,n,covered,walk_len,id_max,seed,scheduler,sends,expected,deliveries,ok\n";
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,%b\n" m.g_topology m.g_n
           m.g_covered m.g_walk_len m.g_id_max m.g_seed m.g_scheduler m.g_sends
           m.g_expected m.g_deliveries m.g_ok))
    ms;
  Buffer.contents buf

let to_csv ms =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "algorithm,workload,n,id_max,seed,scheduler,sends,expected,deliveries,ok\n";
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d,%d,%s,%d,%d,%d,%b\n" m.algorithm
           m.workload m.n m.id_max m.seed m.scheduler m.sends m.expected
           m.deliveries m.ok))
    ms;
  Buffer.contents buf

type summary_row = {
  group : string;
  group_n : int;
  runs : int;
  ok_runs : int;
  mean_sends : float;
  max_rel_err_vs_expected : float;
}

(* Per-group accumulator for the single-pass scan below. *)
type group_acc = {
  mutable g_runs : int;
  mutable g_ok : int;
  g_sends : Summary.t;
  mutable g_max_rel_err : float;
}

let summarize ms =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun m ->
      let key = (m.algorithm ^ "/" ^ m.workload, m.n) in
      let acc =
        match Hashtbl.find_opt tbl key with
        | Some acc -> acc
        | None ->
            let acc =
              {
                g_runs = 0;
                g_ok = 0;
                g_sends = Summary.create ();
                g_max_rel_err = 0.;
              }
            in
            Hashtbl.add tbl key acc;
            acc
      in
      acc.g_runs <- acc.g_runs + 1;
      if m.ok then acc.g_ok <- acc.g_ok + 1;
      Summary.add_int acc.g_sends m.sends;
      let expected = float_of_int m.expected in
      let rel =
        Float.abs (float_of_int m.sends -. expected)
        /. Float.max 1. (Float.abs expected)
      in
      if rel > acc.g_max_rel_err then acc.g_max_rel_err <- rel)
    ms;
  Hashtbl.fold
    (fun (group, group_n) acc rows ->
      {
        group;
        group_n;
        runs = acc.g_runs;
        ok_runs = acc.g_ok;
        mean_sends = Summary.mean acc.g_sends;
        max_rel_err_vs_expected = acc.g_max_rel_err;
      }
      :: rows)
    tbl []
  |> List.sort (fun a b -> compare (a.group, a.group_n) (b.group, b.group_n))

let pp_summary ppf rows =
  Format.fprintf ppf "@[<v>%-32s %6s %6s %6s %12s %10s@,"
    "algorithm/workload" "n" "runs" "ok" "mean sends" "maxrelerr";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-32s %6d %6d %6d %12.1f %10.6f@," r.group r.group_n
        r.runs r.ok_runs r.mean_sends r.max_rel_err_vs_expected)
    rows;
  Format.fprintf ppf "@]"
