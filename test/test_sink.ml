(* Tests for the telemetry sink layer: the frozen Metrics schema, the
   allocation guarantee of the null sink, memory-sink tracing (the one
   event-buffer path since [?record_trace] was removed), jsonl
   journals (shape-checked and replayed back into counters, a valid
   prefix after a raise), and sweep journal determinism across domain
   counts. *)

open Colring_engine
open Colring_core
module Rng = Colring_stats.Rng
module Sweep = Colring_harness.Sweep
module Workload = Colring_harness.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The frozen counter schema. *)

let test_metrics_schema () =
  let m = Metrics.create () in
  Metrics.on_send m ~cw:true;
  Metrics.on_deliver m;
  Alcotest.(check (list string))
    "to_assoc keys are the documented stable schema"
    [
      "consumes";
      "deliveries";
      "post_termination_deliveries";
      "sends";
      "sends_ccw";
      "sends_cw";
      "wakes";
    ]
    (List.map fst (Metrics.to_assoc m))

(* ------------------------------------------------------------------ *)
(* Null sink: the steady-state hot path must not allocate. *)

let test_null_sink_steady_state_allocates_nothing () =
  let n = 64 in
  let ids = Ids.dense (Rng.create ~seed:7) ~n in
  let net =
    Network.create (Topology.oriented n) (fun v -> Algo2.program ~id:ids.(v))
  in
  (* Warm up past start-up transients, then measure a window well
     inside the run (total is n(2*ID_max+1) = 8256 deliveries). *)
  for _ = 1 to 1_000 do
    ignore (Network.step net Scheduler.fifo)
  done;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 2_000 do
    ignore (Network.step net Scheduler.fifo)
  done;
  let dw = Gc.minor_words () -. w0 in
  (* The engine emits ~3 events per delivery (deliver, wake, send)
     through the sink record.  With immediate-typed callbacks this
     costs zero words; if the sink layer ever boxed an argument or
     built an event value it would add several words per event —
     tens of thousands over this window.  The budget below leaves
     room only for the pre-existing sub-word-per-step residue
     (channel/mailbox buffer doubling, occasional Output publishing),
     measured at ~0.8 words/step before the sink layer existed. *)
  checkb
    (Printf.sprintf
       "sink adds no per-event allocation (%.3f words over 2000 steps)" dw)
    true (dw < 3_000.0)

(* The pop-retention fix clears each popped payload slot with a plain
   store; a pop-heavy steady state (every iteration pops a channel, a
   mailbox, and pushes a channel again) must stay allocation-free on
   either carriage — the clearing must not box, Array.fill, or
   re-grow, and a pulse network moves integers only. *)
let churn_words ~carry x =
  let api1 = ref None in
  let net =
    Network.create_with ~carry (Topology.oriented 2) (fun v ->
        if v = 1 then
          { Network.silent_program with start = (fun api -> api1 := Some api) }
        else Network.silent_program)
  in
  let api1 = Option.get !api1 in
  let link = Topology.link_id (Network.topology net) 0 Port.P1 in
  for _ = 1 to 64 do
    Network.inject net ~node:0 ~port:Port.P1 x
  done;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Network.force_step net ~link;
    ignore (api1.recv_pulse Port.P0);
    Network.inject net ~node:0 ~port:Port.P1 x
  done;
  Gc.minor_words () -. w0

let test_pop_heavy_queue_churn_allocates_nothing () =
  List.iter
    (fun (what, dw) ->
      checkb
        (Printf.sprintf "%s pop-heavy churn allocates nothing (%.1f words)" what
           dw)
        true (dw < 64.0))
    [
      ("payload", churn_words ~carry:Network.Payloads (ref 0));
      ("pulse", churn_words ~carry:Network.Pulses ());
    ]

(* ------------------------------------------------------------------ *)
(* Memory sinks are the one tracing path ([?record_trace] is gone). *)

let run_algo2 ?sink () =
  let n = 6 in
  let ids = Ids.distinct (Rng.create ~seed:11) ~n ~id_max:15 in
  Election.run Election.Algo2 ~seed:3 ?sink ~topo:(Topology.oriented n) ~ids
    ~sched:(Scheduler.random (Rng.create ~seed:5))

let test_memory_sink_traces () =
  let mem = Sink.memory () in
  let report, net = run_algo2 ~sink:mem () in
  let tr = Option.get (Sink.trace mem) in
  checkb "trace is non-empty" true (Trace.length tr > 0);
  (* Every send of the run reached the buffer: the trace and the
     metrics count the same pulses. *)
  let sends =
    List.length
      (List.filter
         (function Trace.Send _ -> true | _ -> false)
         (Trace.events tr))
  in
  checki "trace sends = report sends" report.Election.sends sends;
  checkb "network exposes the sink's buffer" true
    (match Network.trace net with Some t -> t == tr | None -> false);
  (* Two identically-seeded runs buffer identical event lists. *)
  let mem2 = Sink.memory () in
  let _, _ = run_algo2 ~sink:mem2 () in
  checkb "same events across identical runs" true
    (Trace.events tr = Trace.events (Option.get (Sink.trace mem2)))

let test_tee () =
  let mem = Sink.memory () in
  checkb "tee null s is s" true (Sink.tee Sink.null mem == mem);
  checkb "tee s null is s" true (Sink.tee mem Sink.null == mem);
  let buf = Buffer.create 64 in
  let both = Sink.tee mem (Sink.jsonl_buffer buf) in
  checkb "tee of live sinks is enabled" true both.Sink.enabled;
  let _, _ = run_algo2 ~sink:both () in
  checkb "memory side saw events" true
    (Trace.length (Option.get (Sink.trace both)) > 0);
  checkb "jsonl side saw the same run" true (Buffer.length buf > 0)

(* ------------------------------------------------------------------ *)
(* Snapshot cadence: [~snapshot_every] means the same thing to every
   driver.  The same Algorithm 2 run journaled through Election.run
   and through Classic.Driver.run must produce byte-identical
   snapshot records (run_start/run_end legitimately differ). *)

let snapshot_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l ->
         String.length l > 0
         && String.starts_with ~prefix:"{\"type\":\"snapshot\"" l)

let test_snapshot_cadence_matches_across_drivers () =
  let n = 6 in
  let ids = Ids.distinct (Rng.create ~seed:11) ~n ~id_max:8 in
  let topo = Topology.oriented n in
  let election_buf = Buffer.create 4096 in
  let sink = Sink.jsonl_buffer election_buf in
  ignore
    (Election.run_report ~seed:3 ~sink ~snapshot_every:25 Election.Algo2 ~topo
       ~ids
       ~sched:(Scheduler.random (Rng.create ~seed:5)));
  sink.Sink.flush ();
  let driver_buf = Buffer.create 4096 in
  let sink = Sink.jsonl_buffer driver_buf in
  ignore
    (Colring_classic.Driver.run ~seed:3 ~sink ~snapshot_every:25 ~name:"algo2"
       ~expect_max:ids
       (fun v -> Algo2.program ~id:ids.(v))
       ~topo
       ~sched:(Scheduler.random (Rng.create ~seed:5)));
  sink.Sink.flush ();
  let e = snapshot_lines election_buf and d = snapshot_lines driver_buf in
  checkb "snapshots were emitted" true (List.length e > 1);
  checki "same snapshot count" (List.length e) (List.length d);
  List.iter2 (fun a b -> checks "snapshot line" a b) e d

(* ------------------------------------------------------------------ *)
(* jsonl journals: shape and replay. *)

let journal_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map Bench_io.of_string

let line_type line =
  match Option.bind (Bench_io.member "type" line) Bench_io.get_string with
  | Some t -> t
  | None -> Alcotest.fail "journal line without a type"

let test_jsonl_journal_replays () =
  let buf = Buffer.create 4096 in
  let report, net = run_algo2 ~sink:(Sink.jsonl_buffer buf) () in
  let lines = journal_lines buf in
  List.iter
    (fun l ->
      match Bench_io.check_journal_line l with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid journal line: " ^ e))
    lines;
  (* Replay the event lines into counters. *)
  let count ty = List.length (List.filter (fun l -> line_type l = ty) lines) in
  let get_int l k =
    Option.get (Option.bind (Bench_io.member k l) Bench_io.get_int)
  in
  let cw_sends =
    List.length
      (List.filter
         (fun l ->
           line_type l = "send"
           && Option.bind (Bench_io.member "cw" l) Bench_io.get_bool
              = Some true)
         lines)
  in
  let live = Metrics.to_assoc (Network.metrics net) in
  let assoc k = List.assoc k live in
  checki "replayed sends" (assoc "sends") (count "send");
  checki "replayed cw sends" (assoc "sends_cw") cw_sends;
  checki "replayed ccw sends" (assoc "sends_ccw") (count "send" - cw_sends);
  checki "replayed deliveries" (assoc "deliveries") (count "deliver");
  checki "replayed drops" (assoc "post_termination_deliveries") (count "drop");
  checki "replayed consumes" (assoc "consumes") (count "consume");
  checki "replayed wakes" (assoc "wakes") (count "wake");
  (* The final snapshot is the exact counter state. *)
  let snapshots = List.filter (fun l -> line_type l = "snapshot") lines in
  let final = List.nth snapshots (List.length snapshots - 1) in
  checki "final snapshot step" report.Election.deliveries (get_int final "step");
  let counters = Option.get (Bench_io.member "counters" final) in
  List.iter
    (fun (k, v) ->
      checki ("snapshot counter " ^ k) v
        (Option.get (Option.bind (Bench_io.member k counters) Bench_io.get_int)))
    live;
  (* run_start and run_end frame the journal and carry the verdicts. *)
  let first = List.hd lines and last = List.nth lines (List.length lines - 1) in
  checks "first line" "run_start" (line_type first);
  checks "last line" "run_end" (line_type last);
  checks "run_start algorithm" "algo2"
    (Option.get
       (Option.bind (Bench_io.member "algorithm" first) Bench_io.get_string));
  checki "run_end sends" report.Election.sends (get_int last "sends");
  checkb "run_end verdict" (Election.ok report)
    (Option.get (Option.bind (Bench_io.member "ok" last) Bench_io.get_bool))

let test_jsonl_events_off_keeps_lifecycle_only () =
  let buf = Buffer.create 256 in
  let _ = run_algo2 ~sink:(Sink.jsonl_buffer ~events:false buf) () in
  let types = List.map line_type (journal_lines buf) in
  checkb "only lifecycle records" true
    (List.for_all
       (fun t -> List.mem t [ "run_start"; "snapshot"; "run_end" ])
       types);
  checkb "still frames the run" true
    (List.mem "run_start" types && List.mem "run_end" types)

(* A raising run must not lose the journal's buffered tail:
   with_jsonl_channel flushes on the exception path too, so the file
   is a valid prefix (at least the run_start record — well under the
   channel's 64KiB buffer, so an unflushed close would lose it all).
   Node 2 raises on its first wake, after run_start and the start-up
   sends are journaled. *)
let test_jsonl_flush_on_raise () =
  let path = Filename.temp_file "colring_sink" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let ids = [| 3; 7; 2; 5 |] in
  let program v : _ Network.program =
    let p = Algo2.program ~id:ids.(v) in
    if v <> 2 then p else { p with wake = (fun _ -> failwith "node 2") }
  in
  checkb "run raises" true
    (match
       Sink.with_jsonl_channel (open_out path) (fun sink ->
           Colring_classic.Driver.run ~sink ~name:"raise" program
             ~topo:(Topology.oriented 4) ~sched:Scheduler.fifo)
     with
    | exception Failure _ -> true
    | _ -> false);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if l <> "" then lines := l :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  checkb "journal prefix survived the raise" true (lines <> []);
  List.iter
    (fun l ->
      match Bench_io.check_journal_line (Bench_io.of_string l) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid journal line after raise: " ^ e))
    lines;
  checks "prefix starts at run_start" "run_start"
    (line_type (Bench_io.of_string (List.hd lines)))

(* ------------------------------------------------------------------ *)
(* Sweep journals are byte-identical for every domain count. *)

let sweep_journal ~jobs =
  let buf = Buffer.create 4096 in
  let ms =
    Sweep.election ~jobs ~journal:(Buffer.add_string buf)
      ~algorithms:[ Election.Algo1; Election.Algo2 ]
      ~workloads:[ Workload.dense; Workload.sparse ~factor:4 ]
      ~ns:[ 3; 5 ] ~seeds:[ 1; 2 ]
      ~schedulers:[ (fun seed -> Scheduler.random (Rng.create ~seed)) ]
      ()
  in
  (ms, Buffer.contents buf)

let test_sweep_journal_deterministic_across_jobs () =
  let ms1, j1 = sweep_journal ~jobs:1 in
  let ms4, j4 = sweep_journal ~jobs:4 in
  checkb "measurements identical" true (ms1 = ms4);
  checks "journals byte-identical" j1 j4;
  checkb "journal non-empty" true (String.length j1 > 0);
  String.split_on_char '\n' j1
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         match Bench_io.check_journal_line (Bench_io.of_string l) with
         | Ok _ -> ()
         | Error e -> Alcotest.fail ("invalid sweep journal line: " ^ e))

let () =
  Alcotest.run "colring-sink"
    [
      ( "schema",
        [ Alcotest.test_case "metrics to_assoc keys" `Quick test_metrics_schema ] );
      ( "null",
        [
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_null_sink_steady_state_allocates_nothing;
          Alcotest.test_case "pop-heavy churn allocates nothing" `Quick
            test_pop_heavy_queue_churn_allocates_nothing;
        ] );
      ( "memory",
        [
          Alcotest.test_case "memory sink traces" `Quick
            test_memory_sink_traces;
          Alcotest.test_case "tee" `Quick test_tee;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "journal replays" `Quick test_jsonl_journal_replays;
          Alcotest.test_case "events:false keeps lifecycle" `Quick
            test_jsonl_events_off_keeps_lifecycle_only;
          Alcotest.test_case "snapshot cadence across drivers" `Quick
            test_snapshot_cadence_matches_across_drivers;
          Alcotest.test_case "flush on raise" `Quick test_jsonl_flush_on_raise;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "journal identical across jobs" `Quick
            test_sweep_journal_deterministic_across_jobs;
        ] );
    ]
