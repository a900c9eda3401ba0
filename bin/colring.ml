(* colring — command-line driver for the content-oblivious leader
   election reproduction.

   Subcommands: elect, anonymous, solitude, compose, baseline, sweep,
   batch, serve, journal, adversary, check, fast.
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
let validated ~what of_string pp validate ~flag =
  let parse s =
    match of_string s with
    | None -> Error (`Msg (Printf.sprintf "%s %s: expected %s" flag s what))
    | Some v -> (
        match validate ~flag v with
        | Ok v -> Ok v
        | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, pp)

let validated_int = validated ~what:"an integer" int_of_string_opt Format.pp_print_int
let ring_size_conv = validated_int Harness.Cli.ring_size ~flag:"-n"
let positive_conv ~flag = validated_int Harness.Cli.positive ~flag
let non_negative_conv ~flag = validated_int Harness.Cli.non_negative ~flag

let n_arg =
  Arg.(
    value & opt ring_size_conv 8
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Ring size (at least 2).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* [default] says what the command assigns without the flag. *)
let id_max_arg ~default =
  Arg.(
    value
    & opt (some int) None
    & info [ "id-max" ] ~docv:"MAX"
        ~doc:
          (Printf.sprintf
             "Largest assignable ID (default: %s). IDs are distinct, MAX is \
              used."
             default))

(* The --scheduler flag yields the validated factory (seed -> fresh
   scheduler); an unknown name exits 2 naming the flag and the valid
   names before the subcommand runs. *)
let sched_arg =
  let name_arg =
    Arg.(
      value
      & opt string "random"
      & info [ "scheduler" ] ~docv:"NAME"
          ~doc:
            ("Delivery adversary: "
            ^ String.concat ", " (List.map fst Harness.Cli.schedulers)
            ^ "."))
  in
  Term.(
    const (fun name ->
        Harness.Cli.exit_or ~cmd:"colring"
          (Harness.Cli.scheduler ~flag:"--scheduler" name))
    $ name_arg)

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")

(* An output file a flag names that cannot be opened is a usage error
   (exit 2, naming the flag), refused before any job runs. *)
let output_file ~flag path =
  Harness.Cli.exit_or ~cmd:"colring" (Harness.Cli.output_file ~flag path)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL run journal to $(docv): one self-describing JSON \
           object per event/record (validate with $(b,colring journal)).")

(* Every subcommand that takes --journal opens it first thing, so an
   unopenable path is refused before anything runs. *)
let open_journal = Option.map (output_file ~flag:"--journal")

let snapshot_arg =
  Arg.(
    value
    & opt (positive_conv ~flag:"--snapshot-every") 10_000
    & info [ "snapshot-every" ] ~docv:"K"
        ~doc:
          "With $(b,--journal): emit a counter snapshot record every $(docv) \
           deliveries (a final snapshot is always emitted). The cadence means \
           the same thing for every subcommand that accepts it.")

(* Run [f] with a jsonl sink on the --journal channel (the null sink
   when no journal was asked for).  Sink.with_jsonl_channel flushes on
   ALL exits, so a run that raises still leaves a valid journal prefix
   behind. *)
let with_journal journal f =
  match journal with
  | None -> f Sink.null
  | Some oc -> Sink.with_jsonl_channel oc f

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

(* [--topology] where whether it was given matters ([check]). *)
let topology_given_arg =
  Arg.(
    value
    & opt (some topo_conv) None
    & info [ "topology" ] ~absent:"ring" ~docv:"TOPO" ~doc:topology_doc)

(* Two given flags of which one would silently override the other:
   refused with one line naming both, exit 2. *)
let conflict ~cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "colring %s: %s; give one of them\n" cmd msg;
      2)
    fmt

(* A non-ring [--topology] runs the walk election instead of [flag]. *)
let overridden ~cmd ~flag ~value topology =
  conflict ~cmd "--topology %s runs the walk election and overrides %s %s"
    (Harness.Topo.to_string topology)
    flag value

(* --id-max, checked once n is known (it may come from --topology):
   [n] nodes need at least [n] assignable IDs. *)
let resolve_id_max ~n ~default = function
  | None -> default
  | Some k ->
      Harness.Cli.exit_or ~cmd:"colring"
        (Harness.Cli.id_space ~flag:"--id-max" ~n k)

let make_ids ~n ~id_max ~seed =
  let id_max = resolve_id_max ~n ~default:(2 * n) id_max in
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

let algos =
  [
    ("algo1", Election.Algo1);
    ("algo2", Election.Algo2);
    ("algo3-doubled", Election.Algo3 Algo3.Doubled);
    ("algo3-improved", Election.Algo3 Algo3.Improved);
    ("resample", Election.Algo3_resample);
  ]

(* [None] when not given: the default is Algorithm 2, and a non-ring
   [--topology] refuses an explicit choice. *)
let algo_arg =
  Arg.(
    value
    & opt (some (enum algos)) None
    & info [ "algo" ] ~absent:"algo2" ~docv:"ALGO"
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
let gelect topo_spec ~n ~seed ~id_max ~sched_of ~journal ~snapshot_every
    ~max_deliveries =
  let g = Harness.Topo.materialize ~default_n:n topo_spec in
  let module G = Colring_graph.Gtopology in
  let n = G.n g in
  let ids = make_ids ~n ~id_max ~seed in
  let sched = sched_of seed in
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

let algo_name a = fst (List.find (fun (_, x) -> x = a) algos)

(* The flag and value that sized an [n]-node ring, for refusals. *)
let ring_sized_by ~n = function
  | Harness.Topo.Ring (Some _) as topology ->
      ("--topology", Harness.Topo.to_string topology)
  | _ -> ("-n", string_of_int n)

(* Refuse a ring past a live backend's cap before anything starts. *)
let within_live_cap ~n backend topology =
  if backend <> Backend.Sim && Harness.Topo.is_ring topology then
    let n = Harness.Topo.node_count ~default_n:n topology in
    let flag, value = ring_sized_by ~n topology in
    let backend = Backend.name backend in
    ignore
      (Harness.Cli.exit_or ~cmd:"colring elect"
         (Harness.Cli.live_nodes ~flag ~value ~backend n))

let elect n seed id_max sched_of algo trace diagram journal snapshot_every
    backend latency jitter max_deliveries topology =
  match algo with
  | Some a when not (Harness.Topo.is_ring topology) ->
      overridden ~cmd:"elect" ~flag:"--algo" ~value:(algo_name a) topology
  | _ ->
  within_live_cap ~n backend topology;
  let algo = Option.value algo ~default:Election.Algo2 in
  let journal = open_journal journal in
  if not (Harness.Topo.is_ring topology) then begin
    if backend <> Backend.Sim || latency <> 0 || jitter <> 0 || trace || diagram
    then begin
      prerr_endline
        "colring elect: a non-ring --topology needs the direct simulator path \
         (--backend sim, no --latency/--jitter/--trace/--diagram)";
      2
    end
    else
      gelect topology ~n ~seed ~id_max ~sched_of ~journal ~snapshot_every
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
  let sched = sched_of seed in
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
      const elect $ n_arg $ seed_arg $ id_max_arg ~default:"2n" $ sched_arg
      $ algo_arg $ trace_arg $ diagram_arg $ journal_arg $ snapshot_arg $ backend_arg
      $ latency_arg $ jitter_arg $ max_deliveries_arg $ topology_arg)

(* ------------------------------------------------------------------ *)
(* anonymous *)

let c_arg =
  Arg.(
    value
    & opt
        (validated ~what:"a number" float_of_string_opt Format.pp_print_float
           Harness.Cli.positive_float ~flag:"-c")
        1.0
    & info [ "c" ] ~docv:"C" ~doc:"Algorithm 4 confidence parameter (c > 0).")

let anonymous n seed c sched_of =
  let rng = Rng.create ~seed in
  let ids = Sampling.sample_ring rng ~c ~n in
  Printf.printf "sampled ids: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int ids)));
  Printf.printf "unique max: %b\n" (Sampling.max_is_unique ids);
  if Ids.id_max ids > 1_000_000 then begin
    (* n(2*ID_max+1) may not even fit an int here. *)
    Printf.printf
      "ID_max is %d, past this command's limit of 1000000 (the run would \
       need n(2*ID_max+1) pulses); re-run with another seed or a smaller -c\n"
      (Ids.id_max ids);
    1
  end
  else begin
    let topo = Topology.random_non_oriented rng n in
    let sched = sched_of seed in
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
  Arg.(
    value
    & opt (positive_conv ~flag:"--id") 8
    & info [ "id" ] ~docv:"ID" ~doc:"Node ID (at least 1).")

let upto_arg =
  Arg.(
    value
    & opt (some (positive_conv ~flag:"--upto")) None
    & info [ "upto" ] ~docv:"K"
        ~doc:"Print patterns for all IDs 1..K (at least 1).")

let solitude id upto =
  let valid flag v =
    Harness.Cli.exit_or ~cmd:"colring solitude"
      (Harness.Cli.solitude_id ~flag v)
  in
  let id = valid "--id" id and upto = Option.map (valid "--upto") upto in
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

(* A flag naming one of [names]: an unknown name is a usage error
   (exit 124) naming the flag and listing the valid ones. *)
let names_arg ~long ~docv ~default names =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) names)) default
    & info [ long ] ~docv ~doc:(String.concat " | " names ^ "."))

(* The Corollary 5 applications, each built from its node's id. *)
let apps =
  [
    ("discovery", fun _ -> Compose.Corollary5.app_ring_discovery);
    ("gather", fun id -> Compose.Corollary5.app_gather_ids ~my_id:id);
    ("sum", fun id -> Compose.Corollary5.app_sync_sum ~my_value:id);
    ( "chang-roberts",
      fun id -> Compose.Corollary5.app_sync_chang_roberts ~my_id:id );
    ( "broadcast",
      fun _ -> Compose.Corollary5.app_broadcast ~payload:[ 72; 69; 76; 76; 79 ]
    );
  ]

let app_arg =
  names_arg ~long:"app" ~docv:"APP" ~default:"discovery" (List.map fst apps)

let compose n seed id_max sched_of app =
  let ids = make_ids ~n ~id_max ~seed in
  let sched = sched_of seed in
  let mk_app v = List.assoc app apps ids.(v) in
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
    Term.(
      const compose $ n_arg $ seed_arg $ id_max_arg ~default:"2n" $ sched_arg
      $ app_arg)

(* ------------------------------------------------------------------ *)
(* baseline *)

let baseline_arg =
  names_arg ~long:"algo" ~docv:"ALGO" ~default:"chang-roberts"
    [
      "chang-roberts";
      "lelann";
      "hirschberg-sinclair";
      "peterson";
      "franklin";
      "itai-rodeh";
    ]

let baseline n seed sched_of algo journal snapshot_every =
  let journal = open_journal journal in
  let ids = Ids.dense (Rng.create ~seed) ~n in
  let topo = Topology.oriented n in
  let sched = sched_of seed in
  let r =
    with_journal journal (fun sink ->
        let run program =
          Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo
            ~expect_max:ids program ~topo ~sched
        in
        match algo with
        | "chang-roberts" ->
            run (fun v -> Classic.Chang_roberts.program ~id:ids.(v))
        | "lelann" -> run (fun v -> Classic.Lelann.program ~id:ids.(v))
        | "hirschberg-sinclair" ->
            run (fun v -> Classic.Hirschberg_sinclair.program ~id:ids.(v))
        | "peterson" -> run (fun v -> Classic.Peterson.program ~id:ids.(v))
        | "franklin" -> run (fun v -> Classic.Franklin.program ~id:ids.(v))
        | _ ->
            (* itai-rodeh, the one name left that [baseline_arg] admits;
               randomized, so no id to expect. *)
            Classic.Driver.run ~seed ~sink ~snapshot_every ~name:algo
              (fun _ -> Classic.Itai_rodeh.program ~n ~range:8)
              ~topo ~sched)
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
          "Worker domains (the calling domain included). Defaults to \
           $(b,COLRING_JOBS) if set, else the machine's recommended domain \
           count. The results are bit-identical for every N.")

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
let gsweep topos seed sched_of csv jobs journal =
  let ms =
    Harness.Sweep.gelection ~jobs
      ?journal:(Option.map (fun oc -> output_string oc) journal)
      ~topologies:topos
      ~seeds:[ seed; seed + 1; seed + 2 ]
      ~schedulers:[ sched_of ]
      ()
  in
  Option.iter close_out journal;
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

let sweep seed sched_of algo csv jobs journal topologies =
  match (algo, topologies) with
  | Some a, topology :: _ ->
      overridden ~cmd:"sweep" ~flag:"--algo" ~value:(algo_name a) topology
  | _ ->
  let algo = Option.value algo ~default:Election.Algo2 in
  let journal = open_journal journal in
  if topologies <> [] then
    gsweep topologies seed sched_of csv (resolve_jobs jobs) journal
  else
  let measurements =
    Harness.Sweep.election
      ~jobs:(resolve_jobs jobs)
      ?journal:(Option.map (fun oc -> output_string oc) journal)
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
      ~schedulers:[ sched_of ]
      ()
  in
  Option.iter close_out journal;
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
(* batch / serve: many elections over per-domain warm cores *)

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
           shard $(i,i*S/N), so shard contents are independent of --jobs.")

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
          "Job spec file: one $(b,algo n seed [id_max]) line per \
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
   depend only on the spec order — never on --jobs. *)
let with_shards dir ~shards ~count f =
  let flag = "--journal-dir" in
  let dir =
    Harness.Cli.exit_or ~cmd:"colring" (Harness.Cli.output_dir ~flag dir)
  in
  let ocs =
    Array.init shards (fun s ->
        output_file ~flag
          (Filename.concat dir (Printf.sprintf "shard-%04d.jsonl" s)))
  in
  Fun.protect
    ~finally:(fun () -> Array.iter close_out ocs)
    (fun () ->
      f (fun i chunk ->
          output_string ocs.(if count = 0 then 0 else i * shards / count) chunk))

(* The jobs/ok/elapsed/latency block of a batch summary, for rings and
   graphs alike ([ok] judges one report); the exit code, 0 when every
   job was ok. *)
let print_batch_summary ok (o : _ Harness.Batch.outcome) =
  let count = Array.length o.reports in
  let ok = Array.fold_left (fun a r -> if ok r then a + 1 else a) 0 o.reports in
  let lat = Array.copy o.latencies in
  Array.sort Float.compare lat;
  Printf.printf "jobs                %d\n" count;
  Printf.printf "ok                  %d\n" ok;
  Printf.printf "elapsed             %.3f s\n" o.elapsed;
  if o.elapsed > 0. then
    Printf.printf "elections/sec       %.0f\n"
      (float_of_int count /. o.elapsed);
  if Array.length lat > 0 then begin
    Printf.printf "p50 latency         %.3f ms\n"
      (Harness.Batch.percentile lat 0.50 *. 1e3);
    Printf.printf "p99 latency         %.3f ms\n"
      (Harness.Batch.percentile lat 0.99 *. 1e3)
  end;
  if ok = count then 0 else 1

(* On a non-ring topology each spec line is a walk election on the one
   graph ([Batch.run_graph]).  Ring sizes come from the spec lines. *)
let batch spec_path sched jobs journal_dir shards events topology =
  (match topology with
  | Harness.Topo.Ring (Some _) ->
      Harness.Cli.exit_or ~cmd:"colring"
        (Error
           (Printf.sprintf
              "--topology %s: batch ring sizes come from the spec lines; use \
               --topology ring"
              (Harness.Topo.to_string topology)))
  | _ -> ());
  match Harness.Batch.parse_spec (read_spec_file spec_path) with
  | Error msg ->
      prerr_endline ("colring batch: " ^ msg);
      2
  | Ok specs ->
      let jobs = resolve_jobs jobs in
      let journaled run =
        match journal_dir with
        | None -> run None
        | Some dir ->
            with_shards dir ~shards ~count:(Array.length specs) (fun emit ->
                run (Some emit))
      in
      let now = Unix.gettimeofday in
      if Harness.Topo.is_ring topology then
        print_batch_summary Election.ok
          (journaled (fun journal ->
               Harness.Batch.run ~jobs ~events ?journal ~now ~sched
                 specs))
      else begin
        let g = Harness.Topo.materialize ~default_n:8 topology in
        let workload = Harness.Topo.to_string topology in
        let o =
          journaled (fun journal ->
              Harness.Batch.run_graph ~jobs ~events ?journal ~now
                ~workload ~sched (Colring_graph.Gelection.plan g) specs)
        in
        Printf.printf "topology            %s (%d nodes)\n" workload
          (Colring_graph.Gtopology.n g);
        print_batch_summary Colring_graph.Gelection.ok o
      end

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a batch of elections over per-domain warm simulator cores and \
          report throughput and completion-latency percentiles.")
    Term.(
      const batch $ spec_file_arg $ sched_arg $ jobs_arg $ journal_dir_arg
      $ shards_arg $ events_arg $ topology_arg)

let serve sched jobs journal =
  let journal = open_journal journal in
  let jobs = resolve_jobs jobs in
  let pool = Colring_runtime.Pool.create ~jobs in
  let code =
    Fun.protect
      ~finally:(fun () -> Colring_runtime.Pool.shutdown pool)
      (fun () ->
        Harness.Serve.run ~pool
          ?journal:(Option.map output_string journal)
          ~sched ~read:(input stdin)
          ~write:(fun replies ->
            print_string replies;
            flush stdout)
          ())
  in
  Option.iter close_out journal;
  code

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Job server: read spec lines ($(b,algo n seed [id_max])) from \
          standard input and answer one result line per job, in input \
          order. Input is served in waves: every complete line one read \
          returns. A wave's elections run in parallel on $(b,--jobs) \
          domains that live as long as the server, each election on its \
          domain's warm simulator core, and the wave's replies are written \
          together. \
          Replies and journals are byte-identical for every $(b,--jobs) \
          and however the input arrives.")
    Term.(const serve $ sched_arg $ jobs_arg $ journal_arg)

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
  let k =
    Harness.Cli.exit_or ~cmd:"colring adversary"
      (Result.bind
         (Harness.Cli.id_space ~flag:"-k" ~n k)
         (Harness.Cli.solitude_id ~flag:"-k"))
  in
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

(* An unknown target is a usage error (exit 124) listing the valid
   names. *)
let target_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun t -> (t, t)) McSpec.targets))) None
    & info [ "algo"; "target" ] ~absent:"algo2" ~docv:"TARGET"
        ~doc:
          "What to check: algo1, algo2, algo3-doubled, algo3-improved, an \
           ablation (ablation:no-lag, ablation:same-virtual-ids, \
           ablation:no-absorption — these MUST yield a counterexample), or a \
           classic baseline (chang-roberts, lelann, hirschberg-sinclair, \
           peterson, franklin), or anon:relay (an anonymous uniform ring, \
           checked under rotation symmetry). Graph targets with fixed tiny \
           instances: \
           walk:theta3, walk:k4, walk:bowtie, ablation:bridge (the walk \
           election beyond a bridge) and ablation:rotor (the naive rotor \
           generalization of the ring relay rule), which MUST yield a \
           counterexample; any \
           non-ring $(b,--topology) instead checks the walk election on \
           that graph, and is refused together with an explicit \
           $(b,--target).")

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

(* The one report path, rings and graphs alike.  [n] and [id_max] are
   those of the instance checked, so a fixed-instance target journals
   its own. *)
let report_check ~ids_str ~n ~seed ~id_max ~jobs ~max_states ~journal
    (McSpec.Packed spec) =
  let name = spec.Mc.name in
  let r = Mc.check ~jobs ~max_states spec in
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
        let again = snd (Mc.replay spec ce.Mc.schedule) <> None in
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
  if spec.Mc.expect_violation then begin
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

(* Sleep sets are int masks: refuse a topology past the checker's
   link limit up front, naming the flag that sized it. *)
let within_link_budget ~flag ~value links =
  ignore
    (Harness.Cli.exit_or ~cmd:"colring check"
       (Harness.Cli.link_budget ~flag ~value ~max:Mc.max_links links))

let check n seed id_max target jobs max_states journal topology =
  match (target, topology) with
  | Some t, Some topo when not (Harness.Topo.is_ring topo) ->
      overridden ~cmd:"check" ~flag:"--target" ~value:t topo
  | Some t, Some topo when McSpec.fixed_ids t <> None ->
      conflict ~cmd:"check"
        "--target %s checks its fixed instance and ignores --topology %s" t
        (Harness.Topo.to_string topo)
  | _ ->
  let target = Option.value target ~default:"algo2" in
  let topology = Option.value topology ~default:(Harness.Topo.Ring None) in
  let journal = open_journal journal in
  let jobs = resolve_jobs jobs in
  let run ~ids_str ~n ~id_max build =
    match build () with
    | exception Invalid_argument msg ->
        Printf.eprintf "colring check: %s\n" msg;
        1
    | packed ->
        report_check ~ids_str ~n ~seed ~id_max ~jobs ~max_states ~journal
          packed
  in
  match (Harness.Topo.is_ring topology, McSpec.fixed_ids target) with
  | false, _ ->
      (* A non-ring topology: exhaustively verify the walk election on
         the materialized graph (distinct seeded ids, like elect). *)
      let g = Harness.Topo.materialize ~default_n:n topology in
      let name = Harness.Topo.to_string topology in
      within_link_budget ~flag:"--topology" ~value:name
        (Colring_graph.Gtopology.num_links g);
      let n = Colring_graph.Gtopology.n g in
      let id_max = resolve_id_max ~n ~default:n id_max in
      let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max in
      run ~ids_str:(fmt_ids ids) ~n ~id_max (fun () ->
          McSpec.Packed (McSpec.walk_election ~name:("walk:" ^ name) g ~ids))
  | true, Some ids ->
      (* A graph target carries its own fixed tiny instance. *)
      run ~ids_str:"(fixed instance)" ~n:(Array.length ids)
        ~id_max:(Ids.id_max ids) (fun () ->
          McSpec.of_target target ~ids ~topo_seed:(seed + 1))
  | true, None ->
      let n = Harness.Topo.node_count ~default_n:n topology in
      let flag, value = ring_sized_by ~n topology in
      within_link_budget ~flag ~value (Topology.num_links (Topology.oriented n));
      let id_max = resolve_id_max ~n ~default:n id_max in
      let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max in
      run ~ids_str:(fmt_ids ids) ~n ~id_max (fun () ->
          McSpec.of_target target ~ids ~topo_seed:(seed + 1))

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check an algorithm: explore every delivery \
          schedule of a small instance (sleep-set reduced), verify the \
          paper's invariants at every step, and minimize any counterexample \
          into a replayable delivery sequence.")
    Term.(
      const check $ n_arg $ seed_arg
      $ id_max_arg
          ~default:
            "n, or the graph's node count with $(b,--topology); a graph \
             target checks its fixed ids"
      $ target_arg $ jobs_arg
      $ max_states_arg $ journal_arg $ topology_given_arg)

(* ------------------------------------------------------------------ *)
(* fast: the analytical simulator at scale *)

let fast n seed id_max =
  let id_max = resolve_id_max ~n ~default:(1_000_000 * n) id_max in
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
    Term.(const fast $ n_arg $ seed_arg $ id_max_arg ~default:"1,000,000·n")

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "Content-oblivious leader election on rings (Frei, Gelles, Ghazy, Nolin; \
     DISC 2024) — simulator and experiments."
  in
  Cmd.group (Cmd.info "colring" ~version:"1.0.0" ~doc)
    [
      elect_cmd;
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
    ]

let () = exit (Cmd.eval' main_cmd)
