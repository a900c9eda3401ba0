(* Wall-clock measurements of the simulator and its harness layers.
   These measure the harness, not the paper (the paper's metric is
   message count, reported by Experiments); they are here so
   performance regressions in the engine are visible.  perfbench/
   measures the same elections in reference time. *)

open Colring_engine
open Colring_core
module Rng = Colring_stats.Rng
module Classic = Colring_classic

(* {2 Engine throughput}

   The engine's steady-state delivery rate and allocation behaviour,
   persisted to [BENCH_engine.json] so any commit's engine can be
   compared against any other's. *)

type throughput_case = {
  case_name : string;
  algo : string;
  case_n : int;
  sched_name : string;
  run_once : unit -> int; (* returns deliveries performed *)
}

let tp_algo1 n =
  {
    case_name = Printf.sprintf "algo1 n=%d fifo" n;
    algo = "algo1";
    case_n = n;
    sched_name = "fifo";
    run_once =
      (fun () ->
        let ids = Ids.dense (Rng.create ~seed:n) ~n in
        let r =
          Election.run_report Election.Algo1 ~topo:(Topology.oriented n) ~ids
            ~sched:Scheduler.fifo
        in
        assert (not r.exhausted);
        r.deliveries);
  }

let tp_algo2 n =
  {
    case_name = Printf.sprintf "algo2 n=%d random" n;
    algo = "algo2";
    case_n = n;
    sched_name = "random";
    run_once =
      (fun () ->
        let ids = Ids.dense (Rng.create ~seed:n) ~n in
        let r =
          Election.run_report Election.Algo2 ~topo:(Topology.oriented n) ~ids
            ~sched:(Scheduler.random (Rng.create ~seed:n))
        in
        assert (not r.exhausted);
        r.deliveries);
  }

let tp_algo3 n =
  {
    case_name = Printf.sprintf "algo3 n=%d random" n;
    algo = "algo3";
    case_n = n;
    sched_name = "random";
    run_once =
      (fun () ->
        let rng = Rng.create ~seed:n in
        let ids = Ids.dense rng ~n in
        let r =
          Election.run_report (Election.Algo3 Algo3.Improved)
            ~topo:(Topology.random_non_oriented rng n)
            ~ids
            ~sched:(Scheduler.random (Rng.split rng))
        in
        assert (not r.exhausted);
        r.deliveries);
  }

let tp_lelann n =
  {
    case_name = Printf.sprintf "lelann n=%d fifo" n;
    algo = "lelann";
    case_n = n;
    sched_name = "fifo";
    run_once =
      (fun () ->
        let ids = Ids.dense (Rng.create ~seed:n) ~n in
        let r =
          Classic.Driver.run ~name:"lelann" ~expect_max:ids
            (fun v -> Classic.Lelann.program ~id:ids.(v))
            ~topo:(Topology.oriented n) ~sched:Scheduler.fifo
        in
        r.Classic.Driver.deliveries);
  }

let throughput_cases ~quick =
  if quick then [ tp_algo2 64 ]
  else [ tp_algo1 256; tp_algo2 64; tp_algo2 256; tp_algo3 256; tp_lelann 64 ]

type throughput_result = {
  case : throughput_case;
  runs : int;
  deliveries : int;
  wall_s : float;
  del_per_sec : float;
  minor_words_per_delivery : float;
  top_heap_words : int;
}

(* Repeat whole runs until [min_time] elapses; report aggregate
   throughput and the minor-allocation rate over everything the harness
   did (network construction included, so a steady-state-zero engine
   shows a small positive constant that shrinks as runs grow). *)
let measure ?(min_time = 0.5) case =
  ignore (case.run_once ());
  (* warm-up *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let rec go runs deliveries =
    let d = case.run_once () in
    let runs = runs + 1 and deliveries = deliveries + d in
    if Unix.gettimeofday () -. t0 < min_time then go runs deliveries
    else (runs, deliveries)
  in
  let runs, deliveries = go 0 0 in
  let wall_s = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  {
    case;
    runs;
    deliveries;
    wall_s;
    del_per_sec = float_of_int deliveries /. wall_s;
    minor_words_per_delivery =
      (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int deliveries;
    top_heap_words = s1.Gc.top_heap_words;
  }

(* {2 Transport backend throughput}

   Elections per second and per-election wall-clock percentiles for
   each transport backend, with the replay verification pass included
   in the measured work (that is the price an honest backend pays).
   Ordering is load-bearing: the socket rows fork, and Unix.fork is
   forbidden for the rest of the process once any domain has been
   spawned (OCaml 5) — so this section runs before the sweep ladder
   below, and its socket rows run before its domains rows.  When the
   process has already spawned domains (full bench run), the socket
   rows are skipped and recorded as such. *)

module Backend = Colring_transport.Backend

type transport_point = {
  tb_backend : string;
  tb_faults : string;
  tb_trials : int;
  tb_elections_per_sec : float;
  tb_p50_ms : float;
  tb_p99_ms : float;
  tb_verified : int;
}

let transport_fault_cases =
  [
    ("none", Colring_engine.Transport.no_fault);
    ( "lat=100us jit=300us",
      Colring_engine.Transport.faults ~seed:7 ~latency:100 ~jitter:300 () );
  ]

let measure_backend ~trials ~n backend (fault_label, faults) =
  let topo = Topology.oriented n in
  let times = Array.make trials 0.0 in
  let verified = ref 0 in
  for i = 0 to trials - 1 do
    let ids = Ids.dense (Rng.create ~seed:(50 + i)) ~n in
    let t0 = Unix.gettimeofday () in
    let r = Backend.elect ~seed:i ~faults backend Election.Algo2 ~topo ~ids in
    times.(i) <- Unix.gettimeofday () -. t0;
    if r.Backend.verified && Election.ok r.Backend.report then incr verified
  done;
  let total = Array.fold_left ( +. ) 0.0 times in
  Array.sort Float.compare times;
  let pct p =
    times.(min (trials - 1) (int_of_float (p *. float_of_int trials)))
  in
  {
    tb_backend = Backend.name backend;
    tb_faults = fault_label;
    tb_trials = trials;
    tb_elections_per_sec = float_of_int trials /. total;
    tb_p50_ms = pct 0.50 *. 1e3;
    tb_p99_ms = pct 0.99 *. 1e3;
    tb_verified = !verified;
  }

let transport_section ~quick () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Transport backends (elections/sec, per-election latency)\n";
  Printf.printf
    "================================================================\n\n";
  let trials = if quick then 8 else 32 in
  let n = 8 in
  let points = ref [] and skipped = ref [] in
  List.iter
    (fun backend ->
      List.iter
        (fun fc ->
          match backend with
          | Backend.Socket _ -> (
              match measure_backend ~trials ~n backend fc with
              | p -> points := p :: !points
              | exception Failure _ ->
                  (* Socket after a domain spawn: fork unavailable. *)
                  skipped := Backend.name backend :: !skipped)
          | Backend.Sim | Backend.Domains ->
              points := measure_backend ~trials ~n backend fc :: !points)
        transport_fault_cases)
    [
      Backend.Socket { tcp = false };
      Backend.Socket { tcp = true };
      Backend.Sim;
      Backend.Domains;
    ];
  let points = List.rev !points in
  let skipped = List.sort_uniq String.compare !skipped in
  Printf.printf "%-12s %-20s %7s %14s %10s %10s %9s\n" "backend" "faults"
    "trials" "elections/s" "p50 ms" "p99 ms" "verified";
  List.iter
    (fun p ->
      Printf.printf "%-12s %-20s %7d %14.0f %10.3f %10.3f %9d\n" p.tb_backend
        p.tb_faults p.tb_trials p.tb_elections_per_sec p.tb_p50_ms p.tb_p99_ms
        p.tb_verified)
    points;
  if skipped <> [] then
    Printf.printf "skipped (fork unavailable after domain spawn): %s\n"
      (String.concat ", " skipped);
  let json_of_point p =
    Bench_io.Obj
      [
        ("backend", Bench_io.String p.tb_backend);
        ("faults", Bench_io.String p.tb_faults);
        ("trials", Bench_io.Int p.tb_trials);
        ("elections_per_sec", Bench_io.Float p.tb_elections_per_sec);
        ("p50_ms", Bench_io.Float p.tb_p50_ms);
        ("p99_ms", Bench_io.Float p.tb_p99_ms);
        ("verified", Bench_io.Int p.tb_verified);
      ]
  in
  Bench_io.Obj
    [
      ("ring_n", Bench_io.Int n);
      ("results", Bench_io.List (List.map json_of_point points));
      ( "skipped_backends",
        Bench_io.List (List.map (fun s -> Bench_io.String s) skipped) );
      ( "all_verified",
        Bench_io.Bool
          (List.for_all (fun p -> p.tb_verified = p.tb_trials) points) );
    ]

(* {2 Sweep throughput}

   The harness-level counterpart of the engine section: one E2-style
   grid (Algorithm 2 across oriented workloads, random adversary) swept
   with the lib/runtime domain pool at several domain counts.  Sweep
   results are bit-identical for every domain count (asserted below on
   every measurement), so the only thing that may vary is the wall
   clock — which is exactly what this section records. *)

module Harness = Colring_harness
module Pool = Colring_runtime.Pool

let sweep_jobs_ladder = [ 1; 2; 4 ]

let sweep_grid ~quick ~jobs () =
  Harness.Sweep.election ~jobs
    ~algorithms:[ Election.Algo2 ]
    ~workloads:[ Harness.Workload.dense; Harness.Workload.sparse ~factor:8 ]
    ~ns:(if quick then [ 2; 4; 8; 16 ] else [ 2; 4; 8; 16; 32; 64 ])
    ~seeds:(List.init (if quick then 3 else 6) (fun i -> i + 1))
    ~schedulers:[ (fun s -> Scheduler.random (Rng.create ~seed:s)) ]
    ()

type sweep_point = {
  sw_domains : int;
  sw_runs : int; (* whole-grid sweeps performed *)
  sw_cells : int; (* cells per sweep *)
  sw_wall : float;
  sw_cells_per_sec : float;
  sw_deterministic : bool; (* measurements = the jobs=1 reference *)
}

let measure_sweep ?(min_time = 0.5) ~quick ~reference ~jobs () =
  ignore (sweep_grid ~quick ~jobs ()) (* warm-up *);
  let t0 = Unix.gettimeofday () in
  let rec go runs cells deterministic =
    let ms = sweep_grid ~quick ~jobs () in
    let runs = runs + 1 and cells = cells + List.length ms in
    let deterministic = deterministic && ms = reference in
    if Unix.gettimeofday () -. t0 < min_time then go runs cells deterministic
    else (runs, cells, deterministic)
  in
  let runs, cells, deterministic = go 0 0 true in
  let wall = Unix.gettimeofday () -. t0 in
  {
    sw_domains = jobs;
    sw_runs = runs;
    sw_cells = cells / runs;
    sw_wall = wall;
    sw_cells_per_sec = float_of_int cells /. wall;
    sw_deterministic = deterministic;
  }

let sweep_section ~quick () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Sweep throughput (E2-style grid on the domain pool)\n";
  Printf.printf
    "================================================================\n\n";
  Printf.printf "%-8s %6s %7s %12s %14s %14s\n" "domains" "runs" "cells"
    "wall s" "cells/s" "deterministic";
  let reference = sweep_grid ~quick ~jobs:1 () in
  let points =
    List.map (fun jobs -> measure_sweep ~quick ~reference ~jobs ())
      sweep_jobs_ladder
  in
  List.iter
    (fun p ->
      Printf.printf "%-8d %6d %7d %12.3f %14.0f %14b\n" p.sw_domains p.sw_runs
        p.sw_cells p.sw_wall p.sw_cells_per_sec p.sw_deterministic)
    points;
  let cps_at domains =
    match List.find_opt (fun p -> p.sw_domains = domains) points with
    | Some p -> p.sw_cells_per_sec
    | None -> nan
  in
  let speedup = cps_at 4 /. cps_at 1 in
  Printf.printf "\nspeedup at 4 domains vs 1: %.2fx (machine recommends %d)\n"
    speedup
    (Domain.recommended_domain_count ());
  let json_of_point p =
    Bench_io.Obj
      [
        ("domains", Bench_io.Int p.sw_domains);
        ("runs", Bench_io.Int p.sw_runs);
        ("cells", Bench_io.Int p.sw_cells);
        ("wall_seconds", Bench_io.Float p.sw_wall);
        ("cells_per_sec", Bench_io.Float p.sw_cells_per_sec);
        ("deterministic_vs_jobs1", Bench_io.Bool p.sw_deterministic);
      ]
  in
  Bench_io.Obj
    [
      ( "grid",
        Bench_io.String
          "algo2 x {dense, sparse-x8} x ns x seeds, random adversary" );
      ("cells_per_sweep", Bench_io.Int (List.length reference));
      ("results", Bench_io.List (List.map json_of_point points));
      ("speedup_4_vs_1", Bench_io.Float speedup);
      ( "deterministic_across_jobs",
        Bench_io.Bool (List.for_all (fun p -> p.sw_deterministic) points) );
    ]

(* {2 Batched elections (E17)}

   Many independent elections per call: a loop of sequential
   Election.run, each on a fresh network (what `colring elect` does K
   times), against the same jobs run by Harness.Batch on per-domain
   warm cores (what `colring batch` does).  Reports elections/sec and
   completion-latency percentiles — the time from batch start until
   each job finishes, which is the number a job-server client
   observes.  Warm rows at pool width 1 isolate the gain of resetting
   a core instead of creating one; wider rows add domain parallelism
   on machines that have the cores (see EXPERIMENTS.md). *)

module Batch = Harness.Batch

let batch_ring_n = 8
let batch_sizes ~quick = if quick then [ 100; 300; 1000 ] else [ 1_000; 10_000; 100_000 ]

let batch_specs size =
  Array.init size (fun i ->
      {
        Batch.algorithm = Election.Algo2;
        n = batch_ring_n;
        seed = i + 1;
        id_max = 2 * batch_ring_n;
      })

let batch_sched seed = Scheduler.random (Rng.create ~seed)

type batch_point = {
  bp_size : int;
  bp_mode : string;
  bp_jobs : int;
  bp_wall : float;
  bp_eps : float;
  bp_p50_ms : float;
  bp_p99_ms : float;
}

let batch_point ~size ~mode ~jobs ~wall lat =
  Array.sort Float.compare lat;
  {
    bp_size = size;
    bp_mode = mode;
    bp_jobs = jobs;
    bp_wall = wall;
    bp_eps = float_of_int size /. wall;
    bp_p50_ms = Batch.percentile lat 0.50 *. 1e3;
    bp_p99_ms = Batch.percentile lat 0.99 *. 1e3;
  }

let measure_individual size =
  let specs = batch_specs size in
  let topo = Topology.oriented batch_ring_n in
  let lat = Array.make size 0.0 in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i s ->
      let r =
        Election.run_report ~seed:s.Batch.seed s.Batch.algorithm ~topo
          ~ids:(Batch.ids_of_spec s)
          ~sched:(batch_sched s.Batch.seed)
      in
      assert (not r.exhausted);
      lat.(i) <- Unix.gettimeofday () -. t0)
    specs;
  let wall = Unix.gettimeofday () -. t0 in
  batch_point ~size ~mode:"individual" ~jobs:1 ~wall lat

let measure_warm ~jobs size =
  let o =
    Batch.run ~jobs ~now:Unix.gettimeofday ~sched:batch_sched
      (batch_specs size)
  in
  Array.iter (fun r -> assert (not r.Election.exhausted)) o.Batch.reports;
  batch_point ~size
    ~mode:(Printf.sprintf "warm -j%d" jobs)
    ~jobs ~wall:o.Batch.elapsed
    (Array.copy o.Batch.latencies)

let batch_section ~quick () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Batched elections (algo2 n=%d, random adversary)\n"
    batch_ring_n;
  Printf.printf
    "================================================================\n\n";
  let jobs_ladder = List.sort_uniq compare [ 1; Pool.default_jobs () ] in
  let points =
    List.concat_map
      (fun size ->
        measure_individual size
        :: List.map (fun jobs -> measure_warm ~jobs size) jobs_ladder)
      (batch_sizes ~quick)
  in
  Printf.printf "%-8s %-12s %10s %14s %10s %10s\n" "batch" "mode" "wall s"
    "elections/s" "p50 ms" "p99 ms";
  List.iter
    (fun p ->
      Printf.printf "%-8d %-12s %10.3f %14.0f %10.3f %10.3f\n" p.bp_size
        p.bp_mode p.bp_wall p.bp_eps p.bp_p50_ms p.bp_p99_ms)
    points;
  let speedups =
    List.filter_map
      (fun size ->
        let at mode =
          List.find_opt (fun p -> p.bp_size = size && p.bp_mode = mode) points
        in
        match (at "individual", at "warm -j1") with
        | Some ind, Some w -> Some (size, w.bp_eps /. ind.bp_eps)
        | _ -> None)
      (batch_sizes ~quick)
  in
  List.iter
    (fun (size, s) ->
      Printf.printf "\nwarm -j1 vs individual at batch %d: %.2fx" size s)
    speedups;
  print_newline ();
  let json_of_point p =
    Bench_io.Obj
      [
        ("batch_size", Bench_io.Int p.bp_size);
        ("mode", Bench_io.String p.bp_mode);
        ("pool_jobs", Bench_io.Int p.bp_jobs);
        ("wall_seconds", Bench_io.Float p.bp_wall);
        ("elections_per_sec", Bench_io.Float p.bp_eps);
        ("p50_ms", Bench_io.Float p.bp_p50_ms);
        ("p99_ms", Bench_io.Float p.bp_p99_ms);
      ]
  in
  Bench_io.Obj
    [
      ("algo", Bench_io.String "algo2");
      ("ring_n", Bench_io.Int batch_ring_n);
      ( "batch_sizes",
        Bench_io.List
          (List.map (fun s -> Bench_io.Int s) (batch_sizes ~quick)) );
      ("results", Bench_io.List (List.map json_of_point points));
      (* The key predates the warm core (it timed the retired
         multi-slot batch engine); kept for the schema-v6 readers. *)
      ( "speedup_flock_j1_vs_individual",
        Bench_io.List
          (List.map
             (fun (size, s) ->
               Bench_io.Obj
                 [
                   ("batch_size", Bench_io.Int size);
                   ("speedup", Bench_io.Float s);
                 ])
             speedups) );
    ]

(* {2 Walk elections on graphs (E18)}

   The 2-edge-connected generalization (lib/graph Gelection) timed per
   --topology family: elections/sec for the full plan-once-run-many
   loop, plus the walk-length overhead each family pays over a
   same-size ring (pulse complexity is walk * ID_max, so walk/n is the
   message-cost factor vs Algorithm 1 on a ring). *)

module Gelection = Colring_graph.Gelection
module Topo = Harness.Topo

type graph_point = {
  gp_topology : string;
  gp_n : int;
  gp_walk : int;
  gp_trials : int;
  gp_ok : int;
  gp_wall : float;
  gp_eps : float;
}

let graph_families = [ "ring:8"; "theta:8"; "k4"; "bowtie"; "random2ec:12:5" ]

let graph_section ~quick () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Walk elections on 2-edge-connected graphs (E18 families)\n";
  Printf.printf
    "================================================================\n\n";
  let trials = if quick then 50 else 500 in
  let points =
    List.map
      (fun name ->
        let spec =
          match Topo.parse name with Ok s -> s | Error e -> failwith e
        in
        let g = Topo.materialize ~default_n:8 spec in
        let n = Colring_graph.Gtopology.n g in
        let plan = Gelection.plan g in
        let ok = ref 0 in
        let t0 = Unix.gettimeofday () in
        for i = 1 to trials do
          let ids =
            Ids.distinct (Rng.create ~seed:(i * 13 + 1)) ~n ~id_max:(2 * n)
          in
          let r =
            Gelection.run_report plan ~ids ~sched:(batch_sched (i + 5))
          in
          if Gelection.ok r then incr ok
        done;
        let wall = Unix.gettimeofday () -. t0 in
        {
          gp_topology = name;
          gp_n = n;
          gp_walk = Gelection.walk_length plan;
          gp_trials = trials;
          gp_ok = !ok;
          gp_wall = wall;
          gp_eps = float_of_int trials /. Float.max wall 1e-9;
        })
      graph_families
  in
  Printf.printf "%-16s %4s %6s %10s %8s %14s\n" "topology" "n" "walk"
    "overhead" "ok" "elections/s";
  List.iter
    (fun p ->
      Printf.printf "%-16s %4d %6d %10.2f %5d/%-3d %14.0f\n" p.gp_topology
        p.gp_n p.gp_walk
        (float_of_int p.gp_walk /. float_of_int p.gp_n)
        p.gp_ok p.gp_trials p.gp_eps)
    points;
  let json_of_point p =
    Bench_io.Obj
      [
        ("topology", Bench_io.String p.gp_topology);
        ("n", Bench_io.Int p.gp_n);
        ("walk_len", Bench_io.Int p.gp_walk);
        ( "walk_overhead",
          Bench_io.Float (float_of_int p.gp_walk /. float_of_int p.gp_n) );
        ("trials", Bench_io.Int p.gp_trials);
        ("ok", Bench_io.Int p.gp_ok);
        ("wall_seconds", Bench_io.Float p.gp_wall);
        ("elections_per_sec", Bench_io.Float p.gp_eps);
      ]
  in
  Bench_io.Obj
    [
      ("algorithm", Bench_io.String "walk-election");
      ("results", Bench_io.List (List.map json_of_point points));
      ( "all_ok",
        Bench_io.Bool (List.for_all (fun p -> p.gp_ok = p.gp_trials) points) );
    ]

(* ------------------------------------------------------------------ *)
(* Model-checker throughput: the scale-up headline.  The fixed
   workload is algo3-doubled at n=4 — the heaviest pre-scale-up E15
   row — so states/sec is comparable across engine generations;
   [mc_baseline_states_per_sec] is the recorded replay-only figure. *)

let mc_baseline_states_per_sec = 31043.

let mc_cases ~quick =
  if quick then [ ("algo3-doubled", 4) ]
  else [ ("algo3-doubled", 4); ("algo2", 5); ("algo3-improved", 5) ]

let mc_section ~quick () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Model checker (incremental undo + POR + symmetry)\n";
  Printf.printf
    "================================================================\n\n";
  Printf.printf "%-20s %4s %10s %10s %12s\n" "target" "n" "states" "wall(s)"
    "states/s";
  let points =
    List.map
      (fun (target, n) ->
        let ids = Ids.distinct (Rng.create ~seed:1) ~n ~id_max:n in
        let (Colring_mc.Spec.Packed spec) =
          Colring_mc.Spec.of_target target ~ids ~topo_seed:2
        in
        let t0 = Unix.gettimeofday () in
        let r = Colring_mc.Mc.check spec in
        let wall = Unix.gettimeofday () -. t0 in
        let s = r.Colring_mc.Mc.stats in
        let sps = float_of_int s.Colring_mc.Mc.states /. Float.max wall 1e-9 in
        Printf.printf "%-20s %4d %10d %10.3f %12.0f\n" target n
          s.Colring_mc.Mc.states wall sps;
        ( target,
          n,
          s,
          Option.is_none r.Colring_mc.Mc.counterexample
          && not s.Colring_mc.Mc.truncated,
          wall,
          sps ))
      (mc_cases ~quick)
  in
  let headline =
    List.filter_map
      (fun (target, n, _, _, _, sps) ->
        if String.equal target "algo3-doubled" && n = 4 then Some sps else None)
      points
  in
  let headline = match headline with [] -> 0. | sps :: _ -> sps in
  Printf.printf "\nheadline speedup vs replay-only checker: %.1fx\n"
    (headline /. mc_baseline_states_per_sec);
  let json_of_point (target, n, s, verified, wall, sps) =
    Bench_io.Obj
      [
        ("target", Bench_io.String target);
        ("n", Bench_io.Int n);
        ("states", Bench_io.Int s.Colring_mc.Mc.states);
        ("schedules", Bench_io.Int s.Colring_mc.Mc.schedules);
        ("replayed_deliveries", Bench_io.Int s.Colring_mc.Mc.replayed_deliveries);
        ("undone_deliveries", Bench_io.Int s.Colring_mc.Mc.undone_deliveries);
        ("verified", Bench_io.Bool verified);
        ("wall_seconds", Bench_io.Float wall);
        ("states_per_sec", Bench_io.Float sps);
      ]
  in
  Bench_io.Obj
    [
      ("workload", Bench_io.String "exhaustive check, default parameters");
      ("results", Bench_io.List (List.map json_of_point points));
      ("baseline_states_per_sec", Bench_io.Float mc_baseline_states_per_sec);
      ( "speedup_vs_baseline",
        Bench_io.Float (headline /. mc_baseline_states_per_sec) );
    ]

(* The shape downstream tooling relies on; called on the file just
   written, so `bench/main.exe -- throughput` fails loudly if the
   schema regresses. *)
let validate_report path =
  let fail msg =
    failwith (Printf.sprintf "%s: schema_version 6 check failed: %s" path msg)
  in
  let j = try Bench_io.read_file path with
    | Bench_io.Parse_error e -> fail ("unparsable JSON: " ^ e)
  in
  let require cond msg = if not cond then fail msg in
  let int_field obj k = Option.bind (Bench_io.member k obj) Bench_io.get_int in
  let float_field obj k =
    Option.bind (Bench_io.member k obj) Bench_io.get_float
  in
  require (int_field j "schema_version" = Some 6) "schema_version must be 6";
  require (int_field j "domains_recommended" <> None)
    "missing domains_recommended";
  (match Bench_io.member "transport" j with
  | None -> fail "missing transport section"
  | Some tr -> (
      match Option.bind (Bench_io.member "results" tr) Bench_io.get_list with
      | Some (_ :: _ as points) ->
          List.iter
            (fun p ->
              require
                (Option.bind (Bench_io.member "backend" p) Bench_io.get_string
                <> None)
                "transport point missing backend";
              require (float_field p "elections_per_sec" <> None)
                "transport point missing elections_per_sec")
            points
      | _ -> fail "transport missing results list"));
  (match Option.bind (Bench_io.member "experiments" j) Bench_io.get_list with
  | Some (_ :: _ as cases) ->
      List.iter
        (fun c ->
          require (float_field c "deliveries_per_sec" <> None)
            "experiment entry missing deliveries_per_sec")
        cases
  | _ -> fail "missing or empty experiments list");
  (match Bench_io.member "sweep" j with
  | None -> fail "missing sweep section"
  | Some sweep -> (
      require (float_field sweep "speedup_4_vs_1" <> None)
        "sweep missing speedup_4_vs_1";
      match Option.bind (Bench_io.member "results" sweep) Bench_io.get_list with
      | Some (_ :: _ as points) ->
          List.iter
            (fun p ->
              require (int_field p "domains" <> None) "sweep point missing domains";
              require (float_field p "cells_per_sec" <> None)
                "sweep point missing cells_per_sec")
            points
      | _ -> fail "sweep missing results list"));
  (match Bench_io.member "batch" j with
  | None -> fail "missing batch section"
  | Some batch -> (
      match Option.bind (Bench_io.member "results" batch) Bench_io.get_list with
      | Some (_ :: _ as points) ->
          List.iter
            (fun p ->
              require (int_field p "batch_size" <> None)
                "batch point missing batch_size";
              require (float_field p "elections_per_sec" <> None)
                "batch point missing elections_per_sec";
              require (float_field p "p50_ms" <> None)
                "batch point missing p50_ms";
              require (float_field p "p99_ms" <> None)
                "batch point missing p99_ms")
            points
      | _ -> fail "batch missing results list"));
  (match Bench_io.member "graph" j with
  | None -> fail "missing graph section"
  | Some graph -> (
      match Option.bind (Bench_io.member "results" graph) Bench_io.get_list with
      | Some (_ :: _ as points) ->
          List.iter
            (fun p ->
              require
                (Option.bind (Bench_io.member "topology" p) Bench_io.get_string
                <> None)
                "graph point missing topology";
              require (int_field p "walk_len" <> None)
                "graph point missing walk_len";
              require (float_field p "walk_overhead" <> None)
                "graph point missing walk_overhead";
              require (float_field p "elections_per_sec" <> None)
                "graph point missing elections_per_sec")
            points
      | _ -> fail "graph missing results list"));
  match Bench_io.member "model_checker" j with
  | None -> fail "missing model_checker section"
  | Some mc -> (
      require (float_field mc "baseline_states_per_sec" <> None)
        "model_checker missing baseline_states_per_sec";
      require (float_field mc "speedup_vs_baseline" <> None)
        "model_checker missing speedup_vs_baseline";
      match Option.bind (Bench_io.member "results" mc) Bench_io.get_list with
      | Some (_ :: _ as points) ->
          List.iter
            (fun p ->
              require
                (Option.bind (Bench_io.member "target" p) Bench_io.get_string
                <> None)
                "model_checker point missing target";
              require (int_field p "states" <> None)
                "model_checker point missing states";
              require (float_field p "states_per_sec" <> None)
                "model_checker point missing states_per_sec")
            points
      | _ -> fail "model_checker missing results list")

let json_of_result r =
  Bench_io.Obj
    [
      ("name", Bench_io.String r.case.case_name);
      ("algo", Bench_io.String r.case.algo);
      ("n", Bench_io.Int r.case.case_n);
      ("scheduler", Bench_io.String r.case.sched_name);
      ("runs", Bench_io.Int r.runs);
      ("deliveries_total", Bench_io.Int r.deliveries);
      ("wall_seconds", Bench_io.Float r.wall_s);
      ("deliveries_per_sec", Bench_io.Float r.del_per_sec);
      ("minor_words_per_delivery", Bench_io.Float r.minor_words_per_delivery);
      ("top_heap_words", Bench_io.Int r.top_heap_words);
    ]

let throughput ?(quick = false) ?(json_path = "BENCH_engine.json") () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Engine throughput (whole-run repeats, wall clock)\n";
  Printf.printf
    "================================================================\n\n";
  Printf.printf "%-24s %6s %12s %14s %12s\n" "case" "runs" "deliveries"
    "deliveries/s" "minorw/del";
  let results = List.map (fun c -> measure c) (throughput_cases ~quick) in
  List.iter
    (fun r ->
      Printf.printf "%-24s %6d %12d %14.0f %12.2f\n" r.case.case_name r.runs
        r.deliveries r.del_per_sec r.minor_words_per_delivery)
    results;
  (* Transport before sweep: the sweep ladder spawns domains, after
     which the socket rows could no longer fork. *)
  let transport = transport_section ~quick () in
  let sweep = sweep_section ~quick () in
  let batch = batch_section ~quick () in
  let graph = graph_section ~quick () in
  let mc = mc_section ~quick () in
  Bench_io.write_file json_path
    (Bench_io.Obj
       [
         ("schema_version", Bench_io.Int 6);
         ("suite", Bench_io.String "colring-engine");
         ("ocaml_version", Bench_io.String Sys.ocaml_version);
         ("word_size_bits", Bench_io.Int Sys.word_size);
         ("domains_recommended", Bench_io.Int (Domain.recommended_domain_count ()));
         ("experiments", Bench_io.List (List.map json_of_result results));
         ("transport", transport);
         ("sweep", sweep);
         ("batch", batch);
         ("graph", graph);
         ("model_checker", mc);
       ]);
  validate_report json_path;
  Printf.printf "\nwrote %s (schema_version 6, shape validated)\n" json_path
