(* colring — command-line driver for the content-oblivious leader
   election reproduction.

   Subcommands: elect, orient, anonymous, solitude, compose, baseline,
   sweep, batch, serve, adversary, check, fast, graph.
   Run `colring <cmd> --help` for details. *)

open Cmdliner
open Colring_engine
open Colring_core
module Rng = Colring_stats.Rng
module Classic = Colring_classic
module Compose = Colring_compose
module LB = Colring_lowerbound
module Harness = Colring_harness
module Backend = Colring_transport.Backend

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

(* All numeric flags go through lib/harness Cli validators, so a bad
   value is a one-line usage error at parse time — the same rules the
   bench runner applies — instead of a backtrace from whatever
   constructor first chokes on it. *)
let validated_int validate ~flag =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s %s: expected an integer" flag s))
    | Some v -> (
        match validate ~flag v with
        | Ok v -> Ok v
        | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, Format.pp_print_int)

let ring_size_conv = validated_int Harness.Cli.ring_size ~flag:"-n"
let positive_conv ~flag = validated_int Harness.Cli.positive ~flag
let non_negative_conv ~flag = validated_int Harness.Cli.non_negative ~flag

let n_arg =
  Arg.(
    value & opt ring_size_conv 8
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Ring size (at least 2).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let id_max_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "id-max" ] ~docv:"MAX"
        ~doc:"Largest assignable ID (default: 2n). IDs are distinct, MAX is used.")

let sched_arg =
  Arg.(
    value
    & opt string "random"
    & info [ "scheduler" ] ~docv:"NAME"
        ~doc:
          "Delivery adversary: random, fifo, global-fifo, lifo, round-robin, \
           bias-cw, bias-ccw.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL run journal to $(docv): one self-describing JSON \
           object per event/record (validate with $(b,colring journal)).")

let snapshot_arg =
  Arg.(
    value
    & opt (positive_conv ~flag:"--snapshot-every") 10_000
    & info [ "snapshot-every" ] ~docv:"K"
        ~doc:
          "With $(b,--journal): emit a counter snapshot record every $(docv) \
           deliveries (a final snapshot is always emitted). The cadence means \
           the same thing for every subcommand that accepts it.")

(* Run [f] with a jsonl sink on [path] (the null sink when no journal
   was asked for).  Sink.with_jsonl_channel flushes on ALL exits, so a
   run that raises still leaves a valid journal prefix behind. *)
let with_journal path f =
  match path with
  | None -> f Sink.null
  | Some p -> Sink.with_jsonl_channel p f

let diagram_arg =
  Arg.(
    value & flag
    & info [ "diagram" ] ~doc:"Print an ASCII space-time diagram of the run.")

let topo_conv =
  let parse s =
    match Harness.Topo.parse s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf t -> Format.pp_print_string ppf (Harness.Topo.to_string t))

(* The shared --topology grammar (elect, sweep, check, batch): rings
   are the default and keep their legacy engine path byte-for-byte;
   anything else materializes a graph and runs the walk election. *)
let topology_doc =
  "Network topology: $(b,ring)[:N] (the default; the ring engine exactly as \
   before), $(b,theta:N), $(b,k4), $(b,bowtie) (alias two-ear), \
   $(b,random2ec:N:SEED). Non-ring topologies run the content-oblivious walk \
   election on the graph engine."

let topology_arg =
  Arg.(
    value
    & opt topo_conv (Harness.Topo.Ring None)
    & info [ "topology" ] ~docv:"TOPO" ~doc:topology_doc)

let scheduler_of_name name ~seed =
  match name with
  | "random" -> Scheduler.random (Rng.create ~seed)
  | "fifo" -> Scheduler.fifo
  | "global-fifo" -> Scheduler.global_fifo
  | "lifo" -> Scheduler.lifo
  | "round-robin" -> Scheduler.round_robin ()
  | "bias-cw" -> Scheduler.bias_direction ~cw:true
  | "bias-ccw" -> Scheduler.bias_direction ~cw:false
  | other -> failwith (Printf.sprintf "unknown scheduler %S" other)

let make_ids ~n ~id_max ~seed =
  let id_max = Option.value ~default:(2 * n) id_max in
  Ids.distinct (Rng.create ~seed) ~n ~id_max

let fmt_ids ids =
  Printf.sprintf "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int ids)))

let print_report (r : Election.report) =
  Printf.printf "algorithm           %s\n" r.algorithm;
  Printf.printf "ring size           %d\n" r.n;
  Printf.printf "ID_max              %d\n" r.id_max;
  Printf.printf "pulses sent         %d (paper: %d)  [cw %d / ccw %d]\n"
    r.sends r.expected_sends r.sends_cw r.sends_ccw;
  Printf.printf "leader              %s\n"
    (match r.leader with
    | Some v -> Printf.sprintf "node %d%s" v (if r.leader_is_max then " (max ID)" else "")
    | None -> "NONE");
  Printf.printf "quiescent           %b\n" r.quiescent;
  Printf.printf "all terminated      %b\n" r.all_terminated;
  Printf.printf "post-term pulses    %d\n" r.post_term_deliveries;
  (match r.orientation_ok with
  | Some ok -> Printf.printf "orientation         %s\n" (if ok then "consistent" else "INCONSISTENT")
  | None -> ());
  match r.termination_order_ok with
  | Some ok -> Printf.printf "termination order   %s\n" (if ok then "leader-last, ccw" else "UNEXPECTED")
  | None -> ()

let print_output_array outs =
  Array.iteri
    (fun v (o : Output.t) -> Format.printf "  node %d: %a@." v Output.pp o)
    outs

let print_outputs net = print_output_array (Network.outputs net)

let maybe_trace net want =
  if want then
    match Network.trace net with
    | Some tr -> Format.printf "%a@." Trace.pp tr
    | None -> ()

(* ------------------------------------------------------------------ *)
(* elect *)

let algo_conv =
  let parse = function
    | "algo1" -> Ok Election.Algo1
    | "algo2" -> Ok Election.Algo2
    | "algo3-doubled" -> Ok (Election.Algo3 Algo3.Doubled)
    | "algo3-improved" -> Ok (Election.Algo3 Algo3.Improved)
    | "resample" -> Ok Election.Algo3_resample
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print ppf a = Format.pp_print_string ppf (Election.algorithm_name a) in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv Election.Algo2
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "algo1 (stabilizing), algo2 (terminating), algo3-doubled, \
           algo3-improved (non-oriented), resample (Prop. 19).")

let backend_conv =
  let parse s =
    match Backend.of_name s with Ok b -> Ok b | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (Backend.name b))

let backend_arg =
  Arg.(
    value
    & opt backend_conv Backend.Sim
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Transport backend: $(b,sim) (deterministic simulator), \
           $(b,domains) (one OCaml domain per node, shared-memory pulse \
           channels), $(b,socket) (one OS process per node over Unix \
           sockets), $(b,socket-tcp) (same over loopback TCP). Every \
           backend's recorded delivery schedule is replayed on the \
           simulator and cross-checked; the journal always comes from the \
           replay.")

let latency_arg =
  Arg.(
    value
    & opt (non_negative_conv ~flag:"--latency") 0
    & info [ "latency" ] ~docv:"MICROS"
        ~doc:
          "Fault injection: base per-pulse link delay in microseconds \
           (deterministic; on $(b,sim) it reorders the schedule, on the \
           real backends it also sleeps).")

let jitter_arg =
  Arg.(
    value
    & opt (non_negative_conv ~flag:"--jitter") 0
    & info [ "jitter" ] ~docv:"MICROS"
        ~doc:
          "Fault injection: extra per-pulse delay drawn uniformly from \
           [0, $(docv)] by a seeded hash — the same seed gives the same \
           delays on every backend.")

let max_deliveries_arg =
  Arg.(
    value
    & opt (some (positive_conv ~flag:"--max-deliveries")) None
    & info [ "max-deliveries" ] ~docv:"K"
        ~doc:
          "Abort the run after $(docv) pulse deliveries (the run is then \
           reported as exhausted and fails).")

let print_greport (r : Colring_graph.Gelection.report) =
  Printf.printf "algorithm           %s\n" r.algorithm;
  Printf.printf "nodes               %d (covered %d)\n" r.n r.covered;
  Printf.printf "walk length         %d (%d ears beyond the base cycle)\n"
    r.walk_len r.num_ears;
  Printf.printf "ID_max              %d\n" r.id_max;
  Printf.printf "pulses sent         %d (walk formula: %d)\n" r.sends
    r.expected_sends;
  Printf.printf "leader              %s\n"
    (match r.leader with
    | Some v ->
        Printf.sprintf "node %d%s" v (if r.leader_is_max then " (max ID)" else "")
    | None -> "NONE");
  Printf.printf "quiescent           %b\n" r.quiescent;
  Printf.printf "post-term pulses    %d\n" r.post_term_deliveries;
  Printf.printf "roles               %s\n"
    (if r.roles_ok then "consistent" else "INCONSISTENT")

(* elect on a non-ring topology: the walk election on the graph
   engine.  Only the direct simulator path exists here — the transport
   backends, fault injection and the trace/diagram renderers are ring
   machinery. *)
let gelect topo_spec ~n ~seed ~id_max ~sched_name ~journal ~snapshot_every
    ~max_deliveries =
  let g = Harness.Topo.materialize ~default_n:n topo_spec in
  let module G = Colring_graph.Gtopology in
  let n = G.n g in
  let ids = make_ids ~n ~id_max ~seed in
  let sched = scheduler_of_name sched_name ~seed in
  let plan = Colring_graph.Gelection.plan g in
  Printf.printf "topology: %s (%d nodes, %d links)\n"
    (Harness.Topo.to_string topo_spec)
    n (G.num_links g);
  Printf.printf "ids: %s\n" (fmt_ids ids);
  let report, net =
    with_journal journal (fun sink ->
        Colring_graph.Gelection.run ~seed ?max_deliveries ~sink ~snapshot_every
          ~workload:(Harness.Topo.to_string topo_spec) plan ~ids ~sched)
  in
  print_greport report;
  print_output_array (Colring_graph.Gnetwork.outputs net);
  if Colring_graph.Gelection.ok report then 0 else 1

let elect n seed id_max sched_name algo trace diagram journal snapshot_every
    backend latency jitter max_deliveries topology =
  if not (Harness.Topo.is_ring topology) then begin
    if backend <> Backend.Sim || latency <> 0 || jitter <> 0 || trace || diagram
    then begin
      prerr_endline
        "colring elect: a non-ring --topology needs the direct simulator path \
         (--backend sim, no --latency/--jitter/--trace/--diagram)";
      2
    end
    else
      gelect topology ~n ~seed ~id_max ~sched_name ~journal ~snapshot_every
        ~max_deliveries
  end
  else
  let n = Harness.Topo.node_count ~default_n:n topology in
  let ids = make_ids ~n ~id_max ~seed in
  let topo =
    match algo with
    | Election.Algo1 | Election.Algo2 -> Topology.oriented n
    | Election.Algo3 _ | Election.Algo3_resample ->
        Topology.random_non_oriented (Rng.create ~seed:(seed + 1)) n
  in
  let sched = scheduler_of_name sched_name ~seed in
  let faults =
    if latency = 0 && jitter = 0 then Transport.no_fault
    else Transport.faults ~seed ~latency ~jitter ()
  in
  Printf.printf "ids: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int ids)));
  match backend with
  | Backend.Sim when Transport.is_pure faults ->
      (* The direct simulator path: no verification pass, and the only
         one where the engine records an event trace. *)
      let memory = if trace || diagram then Sink.memory () else Sink.null in
      let report, net =
        with_journal journal (fun journal_sink ->
            Election.run ~seed ?max_deliveries
              ~sink:(Sink.tee memory journal_sink) ~snapshot_every algo ~topo
              ~ids ~sched)
      in
      print_report report;
      print_outputs net;
      maybe_trace net trace;
      if diagram then begin
        match Network.trace net with
        | Some tr ->
            print_endline (Diagram.render tr ~n);
            print_endline Diagram.legend
        | None -> ()
      end;
      if Election.ok report then 0 else 1
  | spec ->
      if trace || diagram then begin
        prerr_endline
          "colring elect: --trace/--diagram need the direct simulator path \
           (--backend sim without --latency/--jitter)";
        2
      end
      else begin
        let r =
          with_journal journal (fun sink ->
              Backend.elect ~seed ?max_deliveries ~faults ~sink ~snapshot_every
                ~sched spec algo ~topo ~ids)
        in
        Printf.printf "backend             %s%s\n" (Backend.name spec)
          (if Transport.is_pure faults then ""
           else Printf.sprintf " (latency %dus, jitter %dus)" latency jitter);
        Printf.printf "replay verified     %b\n" r.Backend.verified;
        print_report r.Backend.report;
        print_output_array r.Backend.live.Transport.outputs;
        if Election.ok r.Backend.report && r.Backend.verified then 0 else 1
      end

let elect_cmd =
  Cmd.v
    (Cmd.info "elect" ~doc:"Run a content-oblivious leader election.")
    Term.(
      const elect $ n_arg $ seed_arg $ id_max_arg $ sched_arg $ algo_arg
      $ trace_arg $ diagram_arg $ journal_arg $ snapshot_arg $ backend_arg
      $ latency_arg $ jitter_arg $ max_deliveries_arg $ topology_arg)

(* ------------------------------------------------------------------ *)
(* orient *)

let orient n seed id_max sched_name =
  let ids = make_ids ~n ~id_max ~seed in
  let topo = Topology.random_non_oriented (Rng.create ~seed:(seed + 1)) n in
  let sched = scheduler_of_name sched_name ~seed in
  Format.printf "%a@." Topology.pp topo;
  let report, net =
    Election.run (Election.Algo3 Algo3.Improved) ~topo ~ids ~sched
  in
  print_report report;
  Array.iteri
    (fun v (o : Output.t) ->
      match o.cw_port with
      | Some p ->
          Printf.printf "  node %d claims its clockwise port is %s%s\n" v
            (Port.to_string p)
            (if Port.equal p (Topology.cw_send_port topo v) then
               " (matches ground truth)"
             else " (opposite of construction order — still globally consistent)")
      | None -> Printf.printf "  node %d: no orientation\n" v)
    (Network.outputs net);
  if Election.ok report then 0 else 1

let orient_cmd =
  Cmd.v
    (Cmd.info "orient"
       ~doc:"Orient a non-oriented ring while electing a leader (Theorem 2).")
    Term.(const orient $ n_arg $ seed_arg $ id_max_arg $ sched_arg)

(* ------------------------------------------------------------------ *)
(* anonymous *)

let c_arg =
  Arg.(
    value & opt float 1.0
    & info [ "c" ] ~docv:"C" ~doc:"Algorithm 4 confidence parameter (c > 0).")

let anonymous n seed c sched_name =
  let rng = Rng.create ~seed in
  let ids = Sampling.sample_ring rng ~c ~n in
  Printf.printf "sampled ids: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int ids)));
  Printf.printf "unique max: %b\n" (Sampling.max_is_unique ids);
  if Ids.id_max ids > 1_000_000 then begin
    Printf.printf
      "ID_max is %d — the run would need %d pulses; re-run with another seed\n"
      (Ids.id_max ids)
      (Formulas.algo3_improved_total ~n ~id_max:(Ids.id_max ids));
    1
  end
  else begin
    let topo = Topology.random_non_oriented rng n in
    let sched = scheduler_of_name sched_name ~seed in
    let report, net =
      Election.run (Election.Algo3 Algo3.Improved) ~topo ~ids ~sched
    in
    print_report report;
    print_outputs net;
    if Election.ok report then 0 else 1
  end

let anonymous_cmd =
  Cmd.v
    (Cmd.info "anonymous"
       ~doc:"Anonymous-ring election: Algorithm 4 sampling + Algorithm 3 (Theorem 3).")
    Term.(const anonymous $ n_arg $ seed_arg $ c_arg $ sched_arg)

(* ------------------------------------------------------------------ *)
(* solitude *)

let id_arg =
  Arg.(value & opt int 8 & info [ "id" ] ~docv:"ID" ~doc:"Node ID.")

let upto_arg =
  Arg.(
    value & opt (some int) None
    & info [ "upto" ] ~docv:"K" ~doc:"Print patterns for all IDs 1..K.")

let solitude id upto =
  let factory ~id = Algo2.program ~id in
  (match upto with
  | None ->
      let p = LB.Solitude.extract factory ~id in
      Printf.printf "solitude pattern of Algorithm 2, id %d (%d pulses):\n%s\n"
        id (LB.Solitude.length p) p
  | Some k ->
      let tagged = LB.Solitude.extract_range factory ~lo:1 ~hi:k in
      List.iter
        (fun (i, p) -> Printf.printf "%4d  %s\n" i p)
        tagged;
      Printf.printf "all distinct (Lemma 22): %b\n"
        (LB.Analysis.first_collision tagged = None));
  0

let solitude_cmd =
  Cmd.v
    (Cmd.info "solitude"
       ~doc:"Extract solitude patterns (Definition 21) of Algorithm 2.")
    Term.(const solitude $ id_arg $ upto_arg)

(* ------------------------------------------------------------------ *)
(* compose *)

let app_arg =
  Arg.(
    value & opt string "discovery"
    & info [ "app" ] ~docv:"APP"
        ~doc:"discovery | gather | sum | chang-roberts | broadcast.")

let compose n seed id_max sched_name app =
  let ids = make_ids ~n ~id_max ~seed in
  let sched = scheduler_of_name sched_name ~seed in
  let mk_app v =
    match app with
    | "discovery" -> Compose.Corollary5.app_ring_discovery
    | "gather" -> Compose.Corollary5.app_gather_ids ~my_id:ids.(v)
    | "sum" -> Compose.Corollary5.app_sync_sum ~my_value:ids.(v)
    | "chang-roberts" ->
        Compose.Corollary5.app_sync_chang_roberts ~my_id:ids.(v)
    | "broadcast" ->
        Compose.Corollary5.app_broadcast ~payload:[ 72; 69; 76; 76; 79 ]
    | other -> failwith (Printf.sprintf "unknown app %S" other)
  in
  let net =
    Network.create ~seed (Topology.oriented n) (fun v ->
        Compose.Corollary5.program ~id:ids.(v) ~app:(mk_app v))
  in
  let result = Network.run net sched in
  let id_max = Ids.id_max ids in
  let election = Formulas.algo2_total ~n ~id_max in
  Printf.printf "ids: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int ids)));
  Printf.printf
    "pulses: total %d = election %d (Theorem 1) + composition %d\n"
    result.sends election (result.sends - election);
  Printf.printf "quiescent %b, all terminated %b\n" result.quiescent
    result.all_terminated;
  print_outputs net;
  if result.quiescent && result.all_terminated then 0 else 1

let compose_cmd =
  Cmd.v
    (Cmd.info "compose"
       ~doc:
         "Corollary 5: elect with Algorithm 2, then run a computation over \
          the fully-defective ring.")
    Term.(const compose $ n_arg $ seed_arg $ id_max_arg $ sched_arg $ app_arg)

(* ------------------------------------------------------------------ *)
(* baseline *)

let baseline_arg =
  Arg.(
    value & opt string "chang-roberts"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "chang-roberts | lelann | hirschberg-sinclair | peterson | \
           franklin | itai-rodeh.")

let baseline n seed sched_name algo journal snapshot_every =
  let ids = Ids.dense (Rng.create ~seed) ~n in
  let topo = Topology.oriented n in
  let sched = scheduler_of_name sched_name ~seed in
  let r =
    with_journal journal (fun sink ->
        match algo with
        | "chang-roberts" ->
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo ~expect_max:ids
              (fun v -> Classic.Chang_roberts.program ~id:ids.(v))
              ~topo ~sched
        | "lelann" ->
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo ~expect_max:ids
              (fun v -> Classic.Lelann.program ~id:ids.(v))
              ~topo ~sched
        | "hirschberg-sinclair" ->
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo ~expect_max:ids
              (fun v -> Classic.Hirschberg_sinclair.program ~id:ids.(v))
              ~topo ~sched
        | "peterson" ->
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo ~expect_max:ids
              (fun v -> Classic.Peterson.program ~id:ids.(v))
              ~topo ~sched
        | "franklin" ->
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo ~expect_max:ids
              (fun v -> Classic.Franklin.program ~id:ids.(v))
              ~topo ~sched
        | "itai-rodeh" ->
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo
              (fun _ -> Classic.Itai_rodeh.program ~n ~range:8)
              ~topo ~sched
        | other -> failwith (Printf.sprintf "unknown baseline %S" other))
  in
  Printf.printf "%s on n=%d: %d messages, leader=%s, terminated=%b, drops=%d\n"
    r.algorithm r.n r.messages
    (match r.leader with Some v -> string_of_int v | None -> "NONE")
    r.all_terminated r.post_term_drops;
  if Classic.Driver.ok r then 0 else 1

let baseline_cmd =
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run a classic content-carrying baseline.")
    Term.(
      const baseline $ n_arg $ seed_arg $ sched_arg $ baseline_arg
      $ journal_arg $ snapshot_arg)

(* ------------------------------------------------------------------ *)
(* sweep *)

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit raw per-run CSV instead of a summary.")

let jobs_arg =
  Arg.(
    value
    & opt (some (positive_conv ~flag:"--jobs")) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep. Defaults to $(b,COLRING_JOBS) if \
           set, else the machine's recommended domain count. The results \
           are bit-identical for every N.")

let resolve_jobs jobs =
  Harness.Cli.exit_or ~cmd:"colring" (Harness.Cli.jobs ~flag:"--jobs" jobs)

let sweep_topology_arg =
  Arg.(
    value & opt_all topo_conv []
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          (topology_doc
         ^ " Repeatable; with at least one $(b,--topology) the sweep runs the \
            walk election over the given topology grid instead of the ring \
            algorithm grid."))

(* The graph sweep: topology × seed × scheduler cells of the walk
   election (rings included — here they run through the graph engine,
   the walk of a ring being the ring itself). *)
let gsweep topos seed sched_name csv jobs journal =
  let journal_oc = Option.map open_out journal in
  let ms =
    Harness.Sweep.gelection ~jobs
      ?journal:(Option.map (fun oc -> output_string oc) journal_oc)
      ~topologies:topos
      ~seeds:[ seed; seed + 1; seed + 2 ]
      ~schedulers:[ (fun s -> scheduler_of_name sched_name ~seed:s) ]
      ()
  in
  Option.iter close_out journal_oc;
  if csv then print_string (Harness.Sweep.gelection_to_csv ms)
  else begin
    Printf.printf "%-24s %6s %6s %6s %6s %10s\n" "topology" "n" "walk" "runs"
      "ok" "max sends";
    let groups =
      List.fold_left
        (fun acc (m : Harness.Sweep.gmeasurement) ->
          if List.mem m.g_topology acc then acc else m.g_topology :: acc)
        [] ms
      |> List.rev
    in
    List.iter
      (fun name ->
        let same =
          List.filter
            (fun (m : Harness.Sweep.gmeasurement) -> m.g_topology = name)
            ms
        in
        let one = List.hd same in
        Printf.printf "%-24s %6d %6d %6d %6d %10d\n" name one.g_n
          one.g_walk_len (List.length same)
          (List.length
             (List.filter (fun (m : Harness.Sweep.gmeasurement) -> m.g_ok) same))
          (List.fold_left
             (fun acc (m : Harness.Sweep.gmeasurement) -> max acc m.g_sends)
             0 same))
      groups
  end;
  if List.for_all (fun (m : Harness.Sweep.gmeasurement) -> m.g_ok) ms then 0
  else 1

let sweep seed sched_name algo csv jobs journal topologies =
  if topologies <> [] then
    gsweep topologies seed sched_name csv (resolve_jobs jobs) journal
  else
  let journal_oc = Option.map open_out journal in
  let measurements =
    Harness.Sweep.election
      ~jobs:(resolve_jobs jobs)
      ?journal:(Option.map (fun oc -> output_string oc) journal_oc)
      ~algorithms:[ algo ]
      ~workloads:
        (match algo with
        | Election.Algo1 | Election.Algo2 -> Harness.Workload.all_for_election
        | Election.Algo3 _ | Election.Algo3_resample ->
            [
              Harness.Workload.dense_scrambled;
              Harness.Workload.sparse_scrambled ~factor:8;
            ])
      ~ns:[ 2; 4; 8; 16; 32; 64; 128 ]
      ~seeds:[ seed; seed + 1; seed + 2 ]
      ~schedulers:[ (fun s -> scheduler_of_name sched_name ~seed:s) ]
      ()
  in
  Option.iter close_out journal_oc;
  if csv then print_string (Harness.Sweep.to_csv measurements)
  else
    Format.printf "%a@." Harness.Sweep.pp_summary
      (Harness.Sweep.summarize measurements);
  if List.for_all (fun m -> m.Harness.Sweep.ok) measurements then 0 else 1

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep message counts over workloads and ring sizes (summary or CSV).")
    Term.(
      const sweep $ seed_arg $ sched_arg $ algo_arg $ csv_arg $ jobs_arg
      $ journal_arg $ sweep_topology_arg)

(* ------------------------------------------------------------------ *)
(* batch / serve: many elections over per-domain flocks *)

let pool_mode_arg =
  Arg.(
    value
    & opt (enum [ ("static", Colring_runtime.Pool.Static);
                  ("steal", Colring_runtime.Pool.Steal) ])
        Colring_runtime.Pool.Static
    & info [ "pool" ] ~docv:"MODE"
        ~doc:
          "How workers claim job waves: $(b,static) (shared cursor) or \
           $(b,steal) (per-worker deques with work stealing). Results are \
           bit-identical either way.")

let slots_arg =
  Arg.(
    value
    & opt (positive_conv ~flag:"--slots") 256
    & info [ "slots" ] ~docv:"K"
        ~doc:"Instances per flock wave (struct-of-arrays batch width).")

let journal_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:
          "Write per-instance JSONL journals, sharded by instance index into \
           $(docv)/shard-NNNN.jsonl (validate with $(b,colring journal)).")

let shards_arg =
  Arg.(
    value
    & opt (positive_conv ~flag:"--shards") 1
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Number of journal shard files; instance $(i,i) of $(i,N) lands in \
           shard $(i,i*S/N), so shard contents are independent of --jobs and \
           --pool.")

let events_arg =
  Arg.(
    value & flag
    & info [ "events" ]
        ~doc:
          "Include per-event records (send/deliver/consume/...) in the \
           journals, not just lifecycle records. Journals get large.")

let spec_file_arg =
  Arg.(
    value
    & pos 0 string "-"
    & info [] ~docv:"SPEC"
        ~doc:
          "Job spec file: one $(b,algo n seed \\[id_max\\]) line per \
           election ($(b,#) comments). $(b,-) reads standard input.")

let read_spec_file path =
  let buf = Buffer.create 4096 in
  let ic = if path = "-" then stdin else open_in path in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> if path <> "-" then close_in ic);
  Buffer.contents buf

(* Shard [count] jobs over [shards] files in contiguous index blocks:
   job [i] lands in shard [i * shards / count], so shard contents
   depend only on the spec order — never on --jobs or --pool. *)
let with_shards dir ~shards ~count f =
  (match Sys.is_directory dir with
  | true -> ()
  | false -> failwith (Printf.sprintf "--journal-dir %s: not a directory" dir)
  | exception Sys_error _ -> Sys.mkdir dir 0o755);
  let ocs =
    Array.init shards (fun s ->
        open_out (Filename.concat dir (Printf.sprintf "shard-%04d.jsonl" s)))
  in
  Fun.protect
    ~finally:(fun () -> Array.iter close_out ocs)
    (fun () ->
      f (fun i chunk ->
          output_string ocs.(if count = 0 then 0 else i * shards / count) chunk))

let print_batch_summary (o : Harness.Batch.outcome) =
  let count = Array.length o.reports in
  let ok = Array.fold_left (fun a r -> if Election.ok r then a + 1 else a) 0 o.reports in
  let lat = Array.copy o.latencies in
  Array.sort Float.compare lat;
  Printf.printf "jobs                %d\n" count;
  Printf.printf "ok                  %d\n" ok;
  Printf.printf "elapsed             %.3f s\n" o.elapsed;
  if o.elapsed > 0. then
    Printf.printf "elections/sec       %.0f\n" (float_of_int count /. o.elapsed);
  if Array.length lat > 0 then begin
    Printf.printf "p50 latency         %.3f ms\n"
      (Harness.Batch.percentile lat 0.50 *. 1e3);
    Printf.printf "p99 latency         %.3f ms\n"
      (Harness.Batch.percentile lat 0.99 *. 1e3)
  end;
  ok = count

(* batch on a non-ring topology: one walk election per spec line on
   the single materialized graph (the line's seed draws the ids and
   the adversary; its algorithm and n fields are ring machinery and
   are ignored), fanned out job-per-job over the domain pool. *)
let gbatch topo_spec specs sched_name jobs journal_dir shards events =
  let module GE = Colring_graph.Gelection in
  let g = Harness.Topo.materialize ~default_n:8 topo_spec in
  let plan = GE.plan g in
  let gn = Colring_graph.Gtopology.n g in
  let count = Array.length specs in
  let t0 = Unix.gettimeofday () in
  let run_jobs want_journal =
    Colring_runtime.Pool.map ~jobs count (fun i ->
        let s = specs.(i) in
        let seed = s.Harness.Batch.seed in
        let ids =
          Ids.distinct (Rng.create ~seed) ~n:gn
            ~id_max:(max gn s.Harness.Batch.id_max)
        in
        let buf = Buffer.create 512 in
        let sink =
          if want_journal then Sink.jsonl_buffer ~events buf else Sink.null
        in
        let r =
          GE.run_report plan ~ids ~sched:(scheduler_of_name sched_name ~seed)
            ~sink ~seed
            ~workload:(Harness.Topo.to_string topo_spec)
        in
        (r, Buffer.contents buf, Unix.gettimeofday () -. t0))
  in
  let out =
    match journal_dir with
    | None -> run_jobs false
    | Some dir ->
        with_shards dir ~shards ~count (fun emit ->
            let out = run_jobs true in
            Array.iteri (fun i (_, chunk, _) -> emit i chunk) out;
            out)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let ok =
    Array.fold_left (fun a (r, _, _) -> if GE.ok r then a + 1 else a) 0 out
  in
  let lat = Array.map (fun (_, _, l) -> l) out in
  Array.sort Float.compare lat;
  Printf.printf "topology            %s (%d nodes)\n"
    (Harness.Topo.to_string topo_spec)
    gn;
  Printf.printf "jobs                %d\n" count;
  Printf.printf "ok                  %d\n" ok;
  Printf.printf "elapsed             %.3f s\n" elapsed;
  if elapsed > 0. then
    Printf.printf "elections/sec       %.0f\n" (float_of_int count /. elapsed);
  if Array.length lat > 0 then begin
    Printf.printf "p50 latency         %.3f ms\n"
      (Harness.Batch.percentile lat 0.50 *. 1e3);
    Printf.printf "p99 latency         %.3f ms\n"
      (Harness.Batch.percentile lat 0.99 *. 1e3)
  end;
  if ok = count then 0 else 1

let batch spec_path sched_name jobs mode slots journal_dir shards events
    topology =
  match Harness.Batch.parse_spec (read_spec_file spec_path) with
  | Error msg ->
      prerr_endline ("colring batch: " ^ msg);
      2
  | Ok specs when not (Harness.Topo.is_ring topology) ->
      gbatch topology specs sched_name (resolve_jobs jobs) journal_dir shards
        events
  | Ok specs ->
      let jobs = resolve_jobs jobs in
      let sched seed = scheduler_of_name sched_name ~seed in
      let run journal =
        Harness.Batch.run ~jobs ~mode ~slots ~events ?journal
          ~now:Unix.gettimeofday ~sched specs
      in
      let outcome =
        match journal_dir with
        | None -> run None
        | Some dir ->
            with_shards dir ~shards ~count:(Array.length specs) (fun emit ->
                run (Some emit))
      in
      if print_batch_summary outcome then 0 else 1

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a batch of elections over per-domain multi-instance flocks and \
          report throughput and completion-latency percentiles.")
    Term.(
      const batch $ spec_file_arg $ sched_arg $ jobs_arg $ pool_mode_arg
      $ slots_arg $ journal_dir_arg $ shards_arg $ events_arg $ topology_arg)

(* One result line per job, in the serve loop's request order. *)
let serve_result_line (s : Harness.Batch.spec) (r : Election.report) =
  Printf.sprintf "%s algo=%s n=%d seed=%d leader=%s sends=%d deliveries=%d"
    (if Election.ok r then "ok" else "FAIL")
    r.Election.algorithm r.Election.n s.Harness.Batch.seed
    (match r.Election.leader with Some v -> string_of_int v | None -> "none")
    r.Election.sends r.Election.deliveries

let serve sched_name slots journal =
  let sched seed = scheduler_of_name sched_name ~seed in
  let journal_oc = Option.map open_out journal in
  let emit = Option.map (fun oc _i chunk -> output_string oc chunk) journal_oc in
  let bad = ref 0 in
  (try
     while true do
       let line = input_line stdin in
       match Harness.Batch.parse_line line with
       | Ok None -> ()
       | Error msg ->
           incr bad;
           print_endline ("error: " ^ msg);
           flush stdout
       | Ok (Some spec) -> (
           (* One-job batches reuse this domain's warm flock cache, so
              the steady state of the loop allocates per-election
              state only.  A job that raises is answered like a bad
              line, and the server keeps reading. *)
           match Harness.Batch.run ~slots ?journal:emit ~sched [| spec |] with
           | o ->
               if not (Election.ok o.Harness.Batch.reports.(0)) then incr bad;
               print_endline
                 (serve_result_line spec o.Harness.Batch.reports.(0));
               flush stdout
           | exception e ->
               incr bad;
               print_endline ("error: " ^ Printexc.to_string e);
               flush stdout)
     done
   with End_of_file -> ());
  Option.iter close_out journal_oc;
  if !bad = 0 then 0 else 1

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Job server: read spec lines ($(b,algo n seed \\[id_max\\])) from \
          standard input, run each election on a warm flock, answer one \
          result line per job.")
    Term.(const serve $ sched_arg $ slots_arg $ journal_arg)

(* ------------------------------------------------------------------ *)
(* journal: shape-validate a JSONL run journal *)

let journal_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"JSONL run journal to validate.")

let journal file =
  let ic = open_in file in
  let counts = Hashtbl.create 16 in
  let errors = ref 0 in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Bench_io.of_string line with
         | exception Bench_io.Parse_error msg ->
             incr errors;
             Printf.eprintf "line %d: parse error: %s\n" !lineno msg
         | json -> (
             match Bench_io.check_journal_line json with
             | Ok typ ->
                 Hashtbl.replace counts typ
                   (1 + Option.value ~default:0 (Hashtbl.find_opt counts typ))
             | Error msg ->
                 incr errors;
                 Printf.eprintf "line %d: %s\n" !lineno msg)
       end
     done
   with End_of_file -> ());
  close_in ic;
  let types =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  Printf.printf "%s: %d lines, %d invalid\n" file !lineno !errors;
  List.iter (fun (typ, c) -> Printf.printf "  %-12s %8d\n" typ c) types;
  if !errors = 0 && !lineno > 0 then 0 else 1

let journal_cmd =
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Shape-validate a JSONL run journal written by --journal: every \
          line must be a self-describing record of a known type with its \
          required fields.")
    Term.(const journal $ journal_file_arg)

(* ------------------------------------------------------------------ *)
(* adversary *)

let k_arg =
  Arg.(
    value & opt int 256
    & info [ "k" ] ~docv:"K" ~doc:"Number of assignable IDs (1..K).")

let adversary n k =
  let r = LB.Adversary.replay ~k ~n (fun ~id -> Algo2.program ~id) in
  Printf.printf
    "Theorem 20 adversary against Algorithm 2, k=%d assignable IDs, n=%d:\n"
    r.k r.n;
  Printf.printf "  chosen ids            [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int r.ids)));
  Printf.printf "  shared solitude prefix %d  (Corollary 24 floor: %d)\n"
    r.shared_prefix r.formula_prefix;
  Printf.printf "  forced pulses          >= n*s = %d\n" r.bound;
  Printf.printf "  run actually sent      %d\n" r.sends;
  Printf.printf "  per-node solitude agreement: [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int r.per_node_agreement)));
  Printf.printf "  every node mimicked its solitude run for >= s steps: %b\n"
    r.mimicry;
  if r.mimicry then 0 else 1

let adversary_cmd =
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Replay the Theorem 20 lower-bound adversary against Algorithm 2.")
    Term.(const adversary $ n_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* check: exhaustive schedule-space model checking (lib/mc) *)

module Mc = Colring_mc.Mc
module McSpec = Colring_mc.Spec
module GSpec = Colring_mc.Gspec

let target_arg =
  Arg.(
    value & opt string "algo2"
    & info [ "algo"; "target" ] ~docv:"TARGET"
        ~doc:
          "What to check: algo1, algo2, algo3-doubled, algo3-improved, an \
           ablation (ablation:no-lag, ablation:same-virtual-ids, \
           ablation:no-absorption — these MUST yield a counterexample), or a \
           classic baseline (chang-roberts, lelann, hirschberg-sinclair, \
           peterson, franklin), or anon:relay (an anonymous uniform ring, \
           checked under rotation symmetry). Graph targets with fixed tiny \
           instances: \
           walk:theta3, walk:k4, walk:bowtie, ablation:bridge (the walk \
           election beyond a bridge MUST yield a counterexample); any \
           non-ring $(b,--topology) instead checks the walk election on \
           that graph.")

let max_states_arg =
  Arg.(
    value
    & opt (positive_conv ~flag:"--max-states") 1_000_000
    & info [ "max-states" ] ~docv:"K"
        ~doc:
          "Global state budget shared by every worker: at most K states are \
           expanded in total, regardless of $(b,--jobs). Exceeding it \
           reports a truncated (non-exhaustive) exploration, which fails \
           the check.")

let fmt_schedule schedule =
  Printf.sprintf "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int schedule)))

(* Everything below the [check] call is engine-independent: the
   result/stats/counterexample types live outside the Mc functor, so
   the ring and graph checkers share this reporting path.
   [replay_violates] re-runs a minimized schedule on a fresh instance
   of whichever engine produced it. *)
let report_check ~name ~expect_violation ~replay_violates ~ids_str ~n ~seed
    ~id_max ~jobs ~journal (r : Mc.result) =
  Printf.printf
    "model-checking %s on ids %s: every delivery schedule, %d worker%s\n" name
    ids_str jobs
    (if jobs = 1 then "" else "s");
  let s = r.Mc.stats in
  Printf.printf "states expanded     %d\n" s.Mc.states;
  Printf.printf "schedules           %d\n" s.Mc.schedules;
  Printf.printf "replayed deliveries %d\n" s.Mc.replayed_deliveries;
  Printf.printf "undone deliveries   %d\n" s.Mc.undone_deliveries;
  Printf.printf "sleep-set pruned    %d\n" s.Mc.sleep_pruned;
  Printf.printf "state-cache pruned  %d\n" s.Mc.dedup_pruned;
  Printf.printf "max depth           %d\n" s.Mc.max_depth_seen;
  Printf.printf "exhaustive          %b\n" (not s.Mc.truncated);
  let confirmed =
    match r.Mc.counterexample with
    | None ->
        Printf.printf "counterexample      none\n";
        true
    | Some ce ->
        Printf.printf "counterexample      %s\n" (fmt_schedule ce.Mc.schedule);
        Printf.printf "violation           %s\n" ce.Mc.violation;
        (* Replay the minimized schedule on a fresh instance — the
           counterexample is only reported if it reproduces. *)
        let again = replay_violates ce.Mc.schedule in
        Printf.printf "replay reproduces   %b\n" again;
        again
  in
  with_journal journal (fun sink ->
      sink.Sink.on_row ~table:"check"
        [
          ("target", Sink.String name);
          ("n", Sink.Int n);
          ("id_max", Sink.Int id_max);
          ("seed", Sink.Int seed);
          ("jobs", Sink.Int jobs);
          ("states", Sink.Int s.Mc.states);
          ("schedules", Sink.Int s.Mc.schedules);
          ("replayed_deliveries", Sink.Int s.Mc.replayed_deliveries);
          ("undone_deliveries", Sink.Int s.Mc.undone_deliveries);
          ("sleep_pruned", Sink.Int s.Mc.sleep_pruned);
          ("dedup_pruned", Sink.Int s.Mc.dedup_pruned);
          ("max_depth", Sink.Int s.Mc.max_depth_seen);
          ("exhaustive", Sink.Bool (not s.Mc.truncated));
          ( "counterexample",
            Sink.String
              (match r.Mc.counterexample with
              | None -> "-"
              | Some ce -> fmt_schedule ce.Mc.schedule) );
          ( "violation",
            Sink.String
              (match r.Mc.counterexample with
              | None -> "-"
              | Some ce -> ce.Mc.violation) );
        ]);
  let found = r.Mc.counterexample <> None in
  if expect_violation then begin
    if found && confirmed then begin
      Printf.printf "verdict             broken as predicted (counterexample found)\n";
      0
    end
    else begin
      Printf.printf "verdict             FAILED to find the predicted violation\n";
      1
    end
  end
  else if (not found) && not s.Mc.truncated then begin
    Printf.printf "verdict             verified over the whole schedule space\n";
    0
  end
  else begin
    Printf.printf "verdict             %s\n"
      (if found then "VIOLATION found" else "INCONCLUSIVE (state budget hit)");
    1
  end

let check_packed n seed id_max ids jobs max_states journal
    (McSpec.Packed spec) =
  report_check ~name:spec.Mc.name ~expect_violation:spec.Mc.expect_violation
    ~replay_violates:(fun sched -> snd (Mc.replay spec sched) <> None)
    ~ids_str:(fmt_ids ids) ~n ~seed ~id_max ~jobs ~journal
    (Mc.check ~jobs ~max_states spec)

let check_gspec n seed id_max ~ids_str jobs max_states journal
    (spec : unit GSpec.Gmc.spec) =
  report_check ~name:spec.GSpec.Gmc.name
    ~expect_violation:spec.GSpec.Gmc.expect_violation
    ~replay_violates:(fun sched -> snd (GSpec.Gmc.replay spec sched) <> None)
    ~ids_str ~n ~seed ~id_max ~jobs ~journal
    (GSpec.Gmc.check ~jobs ~max_states spec)

let check n seed id_max target jobs max_states journal topology =
  let jobs = resolve_jobs jobs in
  if not (Harness.Topo.is_ring topology) then begin
    (* A non-ring topology: exhaustively verify the walk election on
       the materialized graph (distinct seeded ids, like elect). *)
    let g = Harness.Topo.materialize ~default_n:n topology in
    let gn = Colring_graph.Gtopology.n g in
    let id_max = Option.value ~default:gn id_max in
    let ids = Ids.distinct (Rng.create ~seed) ~n:gn ~id_max in
    match
      GSpec.walk_election
        ~name:("walk:" ^ Harness.Topo.to_string topology)
        g ~ids
    with
    | exception Invalid_argument msg ->
        Printf.eprintf "colring check: %s\n" msg;
        1
    | spec ->
        check_gspec gn seed id_max ~ids_str:(fmt_ids ids) jobs max_states
          journal spec
  end
  else if List.mem target GSpec.targets then
    (* The named graph targets carry their own fixed tiny instance. *)
    check_gspec n seed
      (Option.value ~default:n id_max)
      ~ids_str:"(fixed instance)" jobs max_states journal
      (GSpec.of_target target)
  else begin
    let n = Harness.Topo.node_count ~default_n:n topology in
    let id_max = Option.value ~default:n id_max in
    let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max in
    match McSpec.of_target target ~ids ~topo_seed:(seed + 1) with
    | exception Invalid_argument msg ->
        Printf.eprintf "colring check: %s\n" msg;
        1
    | packed -> check_packed n seed id_max ids jobs max_states journal packed
  end

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check an algorithm: explore every delivery \
          schedule of a small instance (sleep-set reduced), verify the \
          paper's invariants at every step, and minimize any counterexample \
          into a replayable delivery sequence.")
    Term.(
      const check $ n_arg $ seed_arg $ id_max_arg $ target_arg $ jobs_arg
      $ max_states_arg $ journal_arg $ topology_arg)

(* ------------------------------------------------------------------ *)
(* fast: the analytical simulator at scale *)

let fast n seed id_max =
  let id_max = Option.value ~default:(1_000_000 * n) id_max in
  let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max in
  let rng = Rng.create ~seed:(seed + 1) in
  let flips = Array.init n (fun _ -> Rng.bool rng) in
  Printf.printf "analytical simulation, n=%d, ID_max=%d\n" n id_max;
  let a1 = Colring_fastsim.Fast.algo1 ~ids in
  Printf.printf "algo1: %d pulses (formula %d), last absorber is max: %b\n"
    a1.total
    (Formulas.algo1_total ~n ~id_max)
    a1.last_absorber_is_max;
  let a2 = Colring_fastsim.Fast.algo2 ~ids in
  Printf.printf "algo2: %d pulses (formula %d), leader node %d\n" a2.total
    (Formulas.algo2_total ~n ~id_max)
    a2.leader;
  let a3 = Colring_fastsim.Fast.algo3 ~scheme:Algo3.Improved ~ids ~flips in
  Printf.printf
    "algo3 (improved, random flips): %d pulses (formula %d), oriented: %b\n"
    a3.total
    (Formulas.algo3_improved_total ~n ~id_max)
    a3.orientation_consistent;
  if
    a1.total = Formulas.algo1_total ~n ~id_max
    && a2.total = Formulas.algo2_total ~n ~id_max
    && a3.total = Formulas.algo3_improved_total ~n ~id_max
  then 0
  else 1

let fast_cmd =
  Cmd.v
    (Cmd.info "fast"
       ~doc:
         "Exact analytical simulation at scales (huge ID_max) the event \
          engine cannot reach.")
    Term.(const fast $ n_arg $ seed_arg $ id_max_arg)

(* ------------------------------------------------------------------ *)
(* graph: the general-graph exploration *)

let graph_arg =
  Arg.(
    value & opt string "theta"
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:"theta | k4 | k6 | ring | chords (cycle with 2 chords).")

let graph n seed shape =
  let module G = Colring_graph.Gtopology in
  let module GN = Colring_graph.Gnetwork in
  let g =
    match shape with
    | "theta" -> G.theta 1 2 3
    | "k4" -> G.complete 4
    | "k6" -> G.complete 6
    | "ring" -> G.ring (max 2 n)
    | "chords" -> G.cycle_with_chords (Rng.create ~seed:(seed + 9)) ~n:(max 4 n) ~chords:2
    | other -> failwith (Printf.sprintf "unknown shape %S" other)
  in
  Format.printf "%a@." G.pp g;
  let n = G.n g in
  let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(3 * n) in
  let net =
    GN.create g (fun v -> Colring_graph.Circulate.rotor ~id:ids.(v))
  in
  let r =
    GN.run ~max_deliveries:500_000 net (Scheduler.random (Rng.create ~seed:(seed + 50)))
  in
  Printf.printf
    "rotor circulation (exploratory): pulses=%d quiescent=%b exhausted=%b\n"
    r.GN.sends r.GN.quiescent r.GN.exhausted;
  Array.iteri
    (fun v (o : Output.t) ->
      Printf.printf "  node %d (id %2d): %s\n" v ids.(v)
        (Output.role_to_string o.role))
    (GN.outputs net);
  0

let graph_cmd =
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Explore pulse circulation on general 2-edge-connected graphs (the \
          paper's open question; no correctness claim).")
    Term.(const graph $ n_arg $ seed_arg $ graph_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "Content-oblivious leader election on rings (Frei, Gelles, Ghazy, Nolin; \
     DISC 2024) — simulator and experiments."
  in
  Cmd.group (Cmd.info "colring" ~version:"1.0.0" ~doc)
    [
      elect_cmd;
      orient_cmd;
      anonymous_cmd;
      solitude_cmd;
      compose_cmd;
      baseline_cmd;
      sweep_cmd;
      batch_cmd;
      serve_cmd;
      journal_cmd;
      adversary_cmd;
      check_cmd;
      fast_cmd;
      graph_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
