(* Batched-determinism tests: a batch job's journal and report, run on
   a warm (reset) core, are byte-identical to what a sequential
   Election.run on a fresh network produces for the same inputs — for
   every pool width.  This is the contract that
   makes `colring batch` a drop-in for a loop of `colring elect`
   calls. *)

module Election = Colring_core.Election
module Batch = Colring_harness.Batch
module Pool = Colring_runtime.Pool
module Topology = Colring_engine.Topology
module Scheduler = Colring_engine.Scheduler
module Sink = Colring_engine.Sink
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let sched seed = Scheduler.random (Rng.create ~seed)

let oriented (s : Batch.spec) =
  match s.algorithm with
  | Election.Algo1 | Election.Algo2 -> true
  | Election.Algo3 _ | Election.Algo3_resample -> false

(* The topology Batch uses: oriented, or the shared scramble drawn
   from the ring size (a batch is many elections on the same ring). *)
let topology_of (s : Batch.spec) =
  if oriented s then Topology.oriented s.n
  else Topology.random_non_oriented (Rng.create ~seed:s.n) s.n

let sequential_journal ?(events = false) (s : Batch.spec) =
  let b = Buffer.create 256 in
  ignore
    (Election.run_report ~seed:s.seed
       ~sink:(Sink.jsonl_buffer ~events b)
       s.algorithm ~topo:(topology_of s) ~ids:(Batch.ids_of_spec s)
       ~sched:(sched s.seed));
  Buffer.contents b

let batch_journals ?(jobs = 1) ?events specs =
  let chunks = Array.make (Array.length specs) "" in
  ignore
    (Batch.run ~jobs ?events
       ~journal:(fun i chunk -> chunks.(i) <- chunk)
       ~sched specs);
  chunks

let spec algorithm n seed = { Batch.algorithm; n; seed; id_max = 2 * n }

let check_byte_identical specs =
  let expected = Array.map (fun s -> sequential_journal s) specs in
  List.iter
    (fun jobs ->
      Array.iteri
        (fun i chunk ->
          checks (Printf.sprintf "job %d (-j%d)" i jobs) expected.(i) chunk)
        (batch_journals ~jobs specs))
    [ 1; 2; 4 ]

let test_oriented_journals () =
  check_byte_identical
    (Array.init 9 (fun i -> spec Election.Algo2 8 (i + 1)))

let test_non_oriented_journals () =
  (* The resample path is the one that reads per-node RNG streams, so
     it pins the stream-splitting convention too. *)
  check_byte_identical
    (Array.init 6 (fun i -> spec Election.Algo3_resample 6 (i + 1)))

let test_event_journals () =
  (* Full per-event records, not just snapshots. *)
  let specs = Array.init 4 (fun i -> spec Election.Algo2 5 (i + 11)) in
  let expected = Array.map (sequential_journal ~events:true) specs in
  let got = batch_journals ~jobs:2 ~events:true specs in
  Array.iteri
    (fun i chunk -> checks (Printf.sprintf "job %d" i) expected.(i) chunk)
    got

let test_warm_reuse_is_invisible () =
  (* Every job of one group runs on the same warm core of its domain,
     algorithms interleaved, and the second batch starts on the cores
     the first left behind: a reset must not leak state across jobs. *)
  let algos =
    [|
      Election.Algo3 Colring_core.Algo3.Doubled;
      Election.Algo3_resample;
      Election.Algo3 Colring_core.Algo3.Improved;
    |]
  in
  let specs =
    Array.init 9 (fun i -> spec algos.(i mod 3) (5 + (i mod 2)) (i + 1))
  in
  let expected = Array.map (sequential_journal ~events:true) specs in
  for round = 1 to 2 do
    let got = batch_journals ~jobs:2 ~events:true specs in
    Array.iteri
      (fun i chunk ->
        checks (Printf.sprintf "round %d job %d" round i) expected.(i) chunk)
      got
  done

let test_mixed_batch_reports () =
  (* Mixed algorithms and ring sizes in one batch: reports land in
     spec order and equal the sequential reports field-for-field. *)
  let specs =
    [|
      spec Election.Algo2 8 1;
      spec Election.Algo3_resample 5 2;
      spec Election.Algo2 4 3;
      spec (Election.Algo3 Colring_core.Algo3.Improved) 5 4;
      spec Election.Algo2 8 5;
    |]
  in
  let expected =
    Array.map
      (fun s ->
        Election.run_report ~seed:s.Batch.seed s.Batch.algorithm
          ~topo:(topology_of s) ~ids:(Batch.ids_of_spec s)
          ~sched:(sched s.Batch.seed))
      specs
  in
  List.iter
    (fun jobs ->
      let outcome = Batch.run ~jobs ~sched specs in
      Array.iteri
        (fun i r ->
          checkb
            (Printf.sprintf "report %d at -j%d" i jobs)
            true
            (expected.(i) = r);
          checkb (Printf.sprintf "ok %d" i) true (Election.ok r))
        outcome.Batch.reports)
    [ 1; 4 ]

let test_snapshot_cadence_and_exhaustion () =
  (* Non-default snapshot cadence and a budget that exhausts mid-run
     flow through a warm run unchanged: journal and exhausted flag
     match the sequential run exactly. *)
  let n = 8 and seed = 3 in
  let ids = Batch.ids_of_spec (spec Election.Algo2 n seed) in
  let topo = Topology.oriented n in
  let journal_of run =
    let b = Buffer.create 256 in
    let r = run (Sink.jsonl_buffer b) in
    (Buffer.contents b, r)
  in
  let seq, seq_r =
    journal_of (fun sink ->
        Election.run_report ~seed ~max_deliveries:100 ~snapshot_every:7
          ~sink Election.Algo2 ~topo ~ids ~sched:(sched seed))
  in
  let _, net = Election.run ~seed:9 Election.Algo1 ~topo ~ids ~sched:(sched 9) in
  let warm, warm_r =
    journal_of (fun sink ->
        Election.run_warm ~seed ~max_deliveries:100 ~snapshot_every:7 ~sink
          net Election.Algo2 ~ids ~sched:(sched seed))
  in
  checkb "run exhausted" true seq_r.Election.exhausted;
  checkb "warm report matches" true (seq_r = warm_r);
  checks "journal" seq warm

(* ------------------------------------------------------------------ *)
(* Differential oracle: a warm core ({!Network.reset} through
   {!Election.run_warm}) against a fresh network ({!Election.run}).
   Reset must put back every piece of per-run state, so any field it
   forgets shows up as a report field or a journal byte of the next
   run. *)

module Network = Colring_engine.Network
module Ids = Colring_core.Ids

type case = {
  algo : int; (* index into [algorithms] *)
  n : int;
  oriented : bool;
  sched_ix : int; (* 0 = random, else a deterministic scheduler *)
  seed : int;
  id_max : int;
}

let algorithms =
  [|
    Election.Algo1;
    Election.Algo2;
    Election.Algo3 Colring_core.Algo3.Doubled;
    Election.Algo3 Colring_core.Algo3.Improved;
    Election.Algo3_resample;
  |]

let n_deterministic = List.length (Scheduler.all_deterministic ())

(* A fresh scheduler per run: most of them carry a cursor. *)
let case_sched c =
  if c.sched_ix = 0 then sched c.seed
  else List.nth (Scheduler.all_deterministic ()) (c.sched_ix - 1)

let case_topology c =
  if c.oriented then Topology.oriented c.n
  else Topology.random_non_oriented (Rng.create ~seed:c.seed) c.n

let case_ids c = Ids.distinct (Rng.create ~seed:c.seed) ~n:c.n ~id_max:c.id_max

let fields_to_string r =
  Election.report_fields r
  |> List.map (fun (k, v) ->
         k ^ "="
         ^
         match v with
         | Sink.Bool b -> string_of_bool b
         | Sink.Int i -> string_of_int i
         | Sink.Float f -> string_of_float f
         | Sink.String s -> s)
  |> String.concat " "

let gen_case =
  QCheck.Gen.(
    let* algo = int_bound (Array.length algorithms - 1) in
    let* n = int_range 2 32 in
    (* Algorithms 1 and 2 need an oriented ring; the Algo3 family runs
       on both. *)
    let* oriented = if algo <= 1 then return true else bool in
    let* sched_ix = int_bound n_deterministic in
    let* seed = int_bound 100_000 in
    let* spread = int_bound (2 * n) in
    return { algo; n; oriented; sched_ix; seed; id_max = n + spread })

let print_case c =
  Printf.sprintf "%s n=%d %s sched=%d seed=%d id_max=%d"
    (Election.algorithm_name algorithms.(c.algo))
    c.n
    (if c.oriented then "oriented" else "non-oriented")
    c.sched_ix c.seed c.id_max

(* A fresh run with an events journal: report and journal bytes. *)
let fresh_events ?max_deliveries ~seed algo ~topo ~ids ~sched =
  let b = Buffer.create 4096 in
  let r =
    Election.run_report ~seed ?max_deliveries
      ~sink:(Sink.jsonl_buffer ~events:true b)
      algo ~topo ~ids ~sched
  in
  (r, Buffer.contents b)

(* The same run on the warm core [net]. *)
let warm_events ?max_deliveries ~seed net algo ~ids ~sched =
  let b = Buffer.create 4096 in
  let r =
    Election.run_warm ~seed ?max_deliveries
      ~sink:(Sink.jsonl_buffer ~events:true b)
      net algo ~ids ~sched
  in
  (r, Buffer.contents b)

(* [sched seed], also logging the activation batch of every picked
   pulse: journals carry send sequence numbers but not batches. *)
let batch_logging seed =
  let s = sched seed and log = Buffer.create 1024 in
  ( {
      s with
      Scheduler.pick =
        (fun view ->
          let link = s.Scheduler.pick view in
          Buffer.add_string log (string_of_int (view.Scheduler.head_batch link));
          Buffer.add_char log ' ';
          link);
    },
    log )

(* [net]'s next ordinary job equals a fresh network's: report, events
   journal and the batches the scheduler saw. *)
let check_next_job what net algo ~seed =
  let topo = Network.topology net in
  let n = Topology.n topo in
  let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
  let fresh_s, fresh_b = batch_logging seed in
  let fresh_r, fresh_j = fresh_events ~seed algo ~topo ~ids ~sched:fresh_s in
  let warm_s, warm_b = batch_logging seed in
  let warm_r, warm_j = warm_events ~seed net algo ~ids ~sched:warm_s in
  checkb (what ^ ": ok") true (Election.ok warm_r);
  checks (what ^ ": report") (fields_to_string fresh_r) (fields_to_string warm_r);
  checks (what ^ ": events journal") fresh_j warm_j;
  checks (what ^ ": batches") (Buffer.contents fresh_b) (Buffer.contents warm_b)

let warm_core_agrees =
  QCheck.Test.make ~name:"warm core = fresh network" ~count:150
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let algo = algorithms.(c.algo) in
      let topo = case_topology c in
      let ids = case_ids c in
      (* Dirty the core first: a finished run, then another
         algorithm's run cut off by a small budget, so reset starts
         from a mid-run state. *)
      let _, net = Election.run ~seed:(c.seed + 1) algo ~topo ~ids ~sched:(sched 1) in
      let other =
        if c.oriented then Election.Algo1 else Election.Algo3_resample
      in
      ignore
        (Election.run_warm ~seed:c.seed ~max_deliveries:(c.n * 3) net other
           ~ids ~sched:(sched c.seed)
          : Election.report);
      let r_net, j_net =
        fresh_events ~seed:c.seed algo ~topo ~ids ~sched:(case_sched c)
      in
      let r_warm, j_warm =
        warm_events ~seed:c.seed net algo ~ids ~sched:(case_sched c)
      in
      if r_net <> r_warm then
        QCheck.Test.fail_reportf "reports differ:@.fresh %s@.warm  %s"
          (fields_to_string r_net) (fields_to_string r_warm);
      String.equal j_net j_warm)

(* Every ring algorithm under random, fifo and lifo, one after another
   on the same warm core. *)
let test_every_algorithm_and_scheduler () =
  let scheds =
    [
      ("random", fun seed -> sched seed);
      ("fifo", fun _ -> Scheduler.fifo);
      ("lifo", fun _ -> Scheduler.lifo);
    ]
  in
  List.iter
    (fun (oriented, n) ->
      let topo =
        if oriented then Topology.oriented n
        else Topology.random_non_oriented (Rng.create ~seed:n) n
      in
      let net = Network.create topo (fun _ -> Network.silent_program) in
      Array.iter
        (fun algo ->
          let needs_orientation =
            match algo with
            | Election.Algo1 | Election.Algo2 -> true
            | Election.Algo3 _ | Election.Algo3_resample -> false
          in
          if oriented || not needs_orientation then
            List.iter
              (fun (sname, mk) ->
                List.iter
                  (fun seed ->
                    let ids =
                      Ids.distinct (Rng.create ~seed) ~n ~id_max:(3 * n)
                    in
                    let fr, fj =
                      fresh_events ~seed algo ~topo ~ids ~sched:(mk seed)
                    in
                    let wr, wj = warm_events ~seed net algo ~ids ~sched:(mk seed) in
                    let what =
                      Printf.sprintf "%s %s n=%d%s seed=%d"
                        (Election.algorithm_name algo) sname n
                        (if oriented then "" else " non-oriented")
                        seed
                    in
                    checks (what ^ " report") (fields_to_string fr)
                      (fields_to_string wr);
                    checks (what ^ " journal") fj wj)
                  [ 1; 2 ])
              scheds)
        algorithms)
    [ (true, 8); (false, 8); (true, 13); (false, 16) ]

(* A sink that is not [Sink.null] but reports [enabled = false] is
   still a consumer: fresh and warm cores must hand it every event
   (only allocating records such as snapshots are gated on
   [enabled]). *)
let test_disabled_sink_sees_every_event () =
  let n = 12 and seed = 5 in
  let topo = Topology.oriented n in
  let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
  let counting () =
    let sends = ref 0 and delivers = ref 0 and consumes = ref 0
    and wakes = ref 0 and decides = ref 0 and terms = ref 0 in
    let sink =
      {
        Sink.null with
        name = "disabled-counter";
        on_send = (fun ~node:_ ~port:_ ~seq:_ ~link:_ ~cw:_ -> incr sends);
        on_deliver = (fun ~node:_ ~port:_ ~seq:_ -> incr delivers);
        on_consume = (fun ~node:_ ~port:_ -> incr consumes);
        on_wake = (fun ~node:_ -> incr wakes);
        on_decide = (fun ~node:_ ~output:_ -> incr decides);
        on_terminate = (fun ~node:_ -> incr terms);
      }
    in
    checkb "sink is disabled" false sink.Sink.enabled;
    (sink, fun () -> [ !sends; !delivers; !consumes; !wakes; !decides; !terms ])
  in
  let sink, seen = counting () in
  let r, net =
    Election.run ~seed ~sink Election.Algo2 ~topo ~ids ~sched:(sched seed)
  in
  let m = Network.metrics net in
  let expected =
    [
      Colring_engine.Metrics.sends m;
      Colring_engine.Metrics.deliveries m;
      Colring_engine.Metrics.consumes m;
      Colring_engine.Metrics.wakes m;
    ]
  in
  let counted = seen () in
  Alcotest.(check (list int))
    "network: sends, deliveries, consumes, wakes" expected
    (List.filteri (fun i _ -> i < 4) counted);
  checkb "network: decisions seen" true (List.nth counted 4 > 0);
  Alcotest.(check int) "network: every node terminated" n (List.nth counted 5);
  let wsink, wseen = counting () in
  let wr =
    Election.run_warm ~seed ~sink:wsink net Election.Algo2 ~ids
      ~sched:(sched seed)
  in
  checkb "warm report" true (r = wr);
  Alcotest.(check (list int)) "warm core sees the same events" counted (wseen ())

(* ------------------------------------------------------------------ *)
(* The same oracle on graphs: a warm graph core ({!Gnetwork.reset}
   through {!Gelection.run_warm}) against a fresh {!Gnetwork}
   ({!Gelection.run}). *)

module Gelection = Colring_graph.Gelection
module Gnetwork = Colring_graph.Gnetwork
module Gtopology = Colring_graph.Gtopology

type gcase = {
  shape : int; (* 0 = theta, 1 = complete, 2 = cycle with chords *)
  size : int;
  gseed : int;
  spread : int;
}

let graph_of c =
  match c.shape with
  | 0 -> Gtopology.theta (c.size / 3) ((c.size + 1) / 3) ((c.size + 2) / 3)
  | 1 -> Gtopology.complete (3 + (c.size mod 4))
  | _ ->
      Gtopology.cycle_with_chords (Rng.create ~seed:c.gseed) ~n:(c.size + 3)
        ~chords:(c.gseed mod 4)

let gen_gcase =
  QCheck.Gen.(
    let* shape = int_bound 2 in
    let* size = int_range 3 14 in
    let* gseed = int_bound 100_000 in
    let* spread = int_bound 20 in
    return { shape; size; gseed; spread })

let print_gcase c =
  Printf.sprintf "shape=%d size=%d seed=%d spread=%d" c.shape c.size c.gseed
    c.spread

let graph_schedulers =
  [
    ("random", fun seed -> sched seed);
    ("fifo", fun _ -> Scheduler.fifo);
    ("lifo", fun _ -> Scheduler.lifo);
  ]

let graph_events run =
  let b = Buffer.create 4096 in
  let r = run (Sink.jsonl_buffer ~events:true b) in
  (r, Buffer.contents b)

let warm_graph_core_agrees =
  QCheck.Test.make ~name:"warm graph core = fresh Gnetwork" ~count:100
    (QCheck.make ~print:print_gcase gen_gcase)
    (fun c ->
      let g = graph_of c in
      let plan = Gelection.plan g in
      let n = Gtopology.n g in
      let ids seed =
        Ids.distinct (Rng.create ~seed) ~n ~id_max:(n + c.spread)
      in
      let net = Gnetwork.create g (fun _ -> Network.silent_program) in
      List.for_all
        (fun (name, mk) ->
          (* Leave the core mid-run: a job cut off by its budget. *)
          let cut =
            Gelection.run_warm ~seed:(c.gseed + 1) ~max_deliveries:n net plan
              ~ids:(ids (c.gseed + 1)) ~sched:(sched 1)
          in
          if not (cut.Gelection.exhausted && Gnetwork.in_flight net > 0) then
            QCheck.Test.fail_reportf "%s: the dirtying job was not cut off"
              name;
          let seed = c.gseed in
          let fresh_r, fresh_j =
            graph_events (fun sink ->
                Gelection.run_report ~seed ~sink plan ~ids:(ids seed)
                  ~sched:(mk seed))
          in
          let warm_r, warm_j =
            graph_events (fun sink ->
                Gelection.run_warm ~seed ~sink net plan ~ids:(ids seed)
                  ~sched:(mk seed))
          in
          if fresh_r <> warm_r then
            QCheck.Test.fail_reportf "%s: reports differ" name;
          if not (String.equal fresh_j warm_j) then
            QCheck.Test.fail_reportf "%s: events journals differ" name;
          Gelection.ok warm_r)
        graph_schedulers)

let test_run_warm_needs_the_plans_graph () =
  let plan = Gelection.plan (Gtopology.complete 4) in
  let other =
    Gnetwork.create (Gtopology.complete 4) (fun _ -> Network.silent_program)
  in
  checkb "a core on another graph is refused" true
    (match
       Gelection.run_warm other plan ~ids:[| 1; 2; 3; 4 |] ~sched:(sched 1)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A graph batch: journals and reports equal a loop of fresh
   [Gelection.run]s, for every pool width. *)
let test_graph_batch_journals () =
  let g = Gtopology.theta 3 3 4 in
  let n = Gtopology.n g in
  let plan = Gelection.plan g in
  let specs =
    Array.init 10 (fun i ->
        spec algorithms.(i mod Array.length algorithms) (4 + i) (i + 1))
  in
  let expected =
    Array.map
      (fun (s : Batch.spec) ->
        graph_events (fun sink ->
            Gelection.run_report ~seed:s.seed ~sink ~workload:"theta"
              plan
              ~ids:
                (Ids.distinct (Rng.create ~seed:s.seed) ~n
                   ~id_max:(max n s.id_max))
              ~sched:(sched s.seed)))
      specs
  in
  List.iter
    (fun jobs ->
      let chunks = Array.make (Array.length specs) "" in
      let o =
        Batch.run_graph ~jobs ~events:true ~workload:"theta"
          ~journal:(fun i chunk -> chunks.(i) <- chunk)
          ~sched plan specs
      in
      Array.iteri
        (fun i (r, j) ->
          let what = Printf.sprintf "job %d (-j%d)" i jobs in
          checkb (what ^ " report") true (r = o.Batch.reports.(i));
          checks (what ^ " journal") j chunks.(i))
        expected)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Failure paths on a warm core: whatever a job leaves behind — a
   program that raised mid-run or during its start activation, or an
   exhausted budget — the same core's next job equals a fresh
   network's. *)

exception Boom

(* Algorithm 2's program at node [v], raising at its [k]-th wake (its
   start when [k = 0]) on node [at]. *)
let raising ~at ~k ids v =
  let p = Election.program_of Election.Algo2 ~id:ids.(v) in
  if v <> at then p
  else
    let wakes = ref 0 in
    let tick () =
      if !wakes = k then raise Boom;
      incr wakes
    in
    {
      p with
      Network.start =
        (fun api ->
          tick ();
          p.Network.start api);
      wake =
        (fun api ->
          tick ();
          p.Network.wake api);
    }

let failure_core () =
  let n = 8 in
  let net = Network.create (Topology.oriented n) (fun _ -> Network.silent_program) in
  (net, Ids.distinct (Rng.create ~seed:3) ~n ~id_max:(2 * n))

let test_raise_mid_run () =
  let net, ids = failure_core () in
  let sink = Sink.jsonl_buffer ~events:true (Buffer.create 256) in
  Network.reset ~sink net (raising ~at:2 ~k:5 ids);
  checkb "the program raises mid-run" true
    (match Network.run net (sched 3) with
    | _ -> false
    | exception Boom -> Network.metrics net |> Colring_engine.Metrics.deliveries > 0);
  check_next_job "after a mid-run raise" net Election.Algo2 ~seed:4;
  check_next_job "and again" net Election.Algo1 ~seed:5

let test_raise_in_start () =
  let net, ids = failure_core () in
  checkb "the program raises in its start activation" true
    (match Network.reset net (raising ~at:5 ~k:0 ids) with
    | () -> false
    | exception Boom -> true);
  check_next_job "after a raise in start" net Election.Algo2 ~seed:6

let test_exhausted () =
  let net, ids = failure_core () in
  let r =
    Election.run_warm ~seed:3 ~max_deliveries:20 net Election.Algo2 ~ids
      ~sched:(sched 3)
  in
  checkb "budget exhausted" true r.Election.exhausted;
  checkb "pulses left in flight" true (Network.in_flight net > 0);
  check_next_job "after an exhausted job" net Election.Algo2 ~seed:7

let test_parse_line () =
  let ok = function Ok (Some s) -> Some s | _ -> None in
  (match ok (Batch.parse_line "algo2 8 42") with
  | Some s ->
      checkb "algo" true (s.Batch.algorithm = Election.Algo2);
      Alcotest.(check int) "n" 8 s.Batch.n;
      Alcotest.(check int) "seed" 42 s.Batch.seed;
      Alcotest.(check int) "id_max defaults to 2n" 16 s.Batch.id_max
  | None -> Alcotest.fail "valid line rejected");
  (match ok (Batch.parse_line "resample 6 1 9") with
  | Some s -> Alcotest.(check int) "explicit id_max" 9 s.Batch.id_max
  | None -> Alcotest.fail "valid line rejected");
  checkb "blank" true (Batch.parse_line "" = Ok None);
  checkb "comment" true (Batch.parse_line "  # algo2 8 1" = Ok None);
  checkb "trailing comment" true
    (match Batch.parse_line "algo2 8 1 # why" with
    | Ok (Some _) -> true
    | _ -> false);
  let err l =
    match Batch.parse_line l with Error _ -> true | Ok _ -> false
  in
  checkb "unknown algo" true (err "bogus 8 1");
  checkb "n too small" true (err "algo2 1 1");
  checkb "id_max < n" true (err "algo2 8 1 7");
  checkb "non-integer" true (err "algo2 eight 1");
  checkb "too few fields" true (err "algo2 8");
  checkb "too many fields" true (err "algo2 8 1 16 extra");
  (* Size caps: a hostile line is a named error, never an allocation. *)
  let names field l =
    match Batch.parse_line l with
    | Error msg ->
        String.length msg > String.length field
        && String.sub msg 0 (String.length field + 1) = field ^ " "
    | Ok _ -> false
  in
  checkb "huge n names n" true (names "n" "algo1 100000000000000 1");
  checkb "n just over the cap" true
    (names "n" (Printf.sprintf "algo2 %d 1" (Batch.max_n + 1)));
  checkb "n at the cap accepted" true
    (match Batch.parse_line (Printf.sprintf "algo2 %d 1" Batch.max_n) with
    | Ok (Some s) -> s.Batch.n = Batch.max_n
    | _ -> false);
  checkb "huge id_max names id_max" true
    (names "id_max" "algo2 8 1 100000000000000");
  checkb "id_max just over the cap" true
    (names "id_max" (Printf.sprintf "algo2 8 1 %d" (Batch.max_id_max + 1)));
  checkb "id_max at the cap accepted" true
    (match
       Batch.parse_line (Printf.sprintf "algo2 8 1 %d" Batch.max_id_max)
     with
    | Ok (Some s) -> s.Batch.id_max = Batch.max_id_max
    | _ -> false)

(* The job server answers a job that raises and keeps serving: the
   batch propagates the exception, and the next batch of the same
   group must not trip over the aborted job's half-run core. *)
let test_batch_recovers_after_raise () =
  let boom _ =
    { Scheduler.fifo with Scheduler.pick = (fun _ -> failwith "boom") }
  in
  let s = spec Election.Algo2 8 1 in
  checkb "raising job propagates" true
    (match Batch.run ~sched:boom [| s |] with
    | _ -> false
    | exception Failure msg -> String.equal msg "boom");
  let o = Batch.run ~sched [| s; spec Election.Algo2 8 2 |] in
  Array.iteri
    (fun i r -> checkb (Printf.sprintf "next batch ok %d" i) true (Election.ok r))
    o.Batch.reports

(* ------------------------------------------------------------------ *)
(* The job server loop, driven in process. *)

module Serve = Colring_harness.Serve

(* A [read] that hands out [input] in pieces of at most [piece]
   bytes, then end of input. *)
let reader ~piece input =
  let off = ref 0 in
  fun buf pos len ->
    let k = min (min len piece) (String.length input - !off) in
    Bytes.blit_string input !off buf pos k;
    off := !off + k;
    k

(* Serve [chunks] (each one [read] result, cut further into [piece]
   bytes) on a fresh [jobs]-domain pool: exit code, replies, journal. *)
let serve ?(sched = sched) ?(piece = max_int) ~jobs chunks =
  let pool = Pool.create ~jobs in
  let out = Buffer.create 4096 and journal = Buffer.create 4096 in
  let pending = ref (List.map (reader ~piece) chunks) in
  let rec read buf pos len =
    match !pending with
    | [] -> 0
    | r :: rest -> (
        match r buf pos len with
        | 0 ->
            pending := rest;
            read buf pos len
        | k -> k)
  in
  let code =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Serve.run ~pool ~journal:(Buffer.add_string journal) ~sched ~read
          ~write:(Buffer.add_string out) ())
  in
  (code, Buffer.contents out, Buffer.contents journal)

(* What serve must answer: each line on its own, through a one-job
   [Batch.run] — the per-line server this one replaces. *)
let per_line ?(sched = sched) input =
  let out = Buffer.create 4096 and journal = Buffer.create 4096 in
  List.iter
    (fun line ->
      match Batch.parse_line line with
      | Ok None -> ()
      | Error msg -> Buffer.add_string out ("error: " ^ msg ^ "\n")
      | Ok (Some s) -> (
          match
            Batch.run ~journal:(fun _ c -> Buffer.add_string journal c) ~sched
              [| s |]
          with
          | o ->
              Buffer.add_string out (Serve.result_line s o.Batch.reports.(0));
              Buffer.add_char out '\n'
          | exception e ->
              Buffer.add_string out
                ("error: " ^ Printexc.to_string e ^ "\n")))
    (String.split_on_char '\n' input);
  (Buffer.contents out, Buffer.contents journal)

let test_serve_byte_identical () =
  let algos =
    [ "algo1"; "algo2"; "algo3-doubled"; "algo3-improved"; "resample" ]
  in
  let lines =
    List.concat_map
      (fun n ->
        List.mapi
          (fun k a ->
            if (n + k) mod 7 = 0 then
              Printf.sprintf "%s %d %d %d" a n (n + k) (3 * n)
            else Printf.sprintf "%s %d %d" a n ((n * 31) + k))
          algos
        @ (if n mod 4 = 0 then [ "# comment"; ""; "   " ] else [])
        @ if n mod 5 = 0 then [ "bogus 8 1"; "algo2 1 1"; "algo1 8" ] else [])
      (List.init 15 (fun i -> i + 2))
  in
  (* The last line has no newline: it is served at end of input. *)
  let input = String.concat "\n" (lines @ [ "algo2 16 99" ]) in
  let want_out, want_journal = per_line input in
  List.iter
    (fun jobs ->
      List.iter
        (fun (piece, how) ->
          let code, out, journal = serve ~jobs ~piece [ input ] in
          let what = Printf.sprintf "-j%d, %s" jobs how in
          Alcotest.(check int) ("exit code, " ^ what) 1 code;
          checks ("replies, " ^ what) want_out out;
          checks ("journal, " ^ what) want_journal journal)
        [ (max_int, "one chunk"); (1, "byte by byte") ])
    [ 1; 2; 4 ]

(* A job that raises in a multi-line wave: only its line is answered
   with the error; the rest of the wave and the next wave are served. *)
let test_serve_raising_job () =
  let sched seed =
    if seed = 13 then
      { Scheduler.fifo with Scheduler.pick = (fun _ -> failwith "boom") }
    else sched seed
  in
  let wave1 = "algo2 8 1\nalgo2 8 13\nalgo2 8 2\nalgo1 6 3\n" in
  let wave2 = "algo3-improved 8 4\nalgo2 8 13\n" in
  let want_out, want_journal = per_line ~sched (wave1 ^ wave2) in
  checkb "the reference answers the raising line" true
    (List.mem "error: Failure(\"boom\")" (String.split_on_char '\n' want_out));
  List.iter
    (fun jobs ->
      let code, out, journal = serve ~sched ~jobs [ wave1; wave2 ] in
      let what = Printf.sprintf "-j%d" jobs in
      Alcotest.(check int) ("exit code, " ^ what) 1 code;
      checks ("replies, " ^ what) want_out out;
      checks ("journal, " ^ what) want_journal journal)
    [ 1; 2; 4 ]

let test_parse_spec_line_numbers () =
  (match Batch.parse_spec "algo2 8 1\n\n# c\nresample 6 2\n" with
  | Ok specs -> Alcotest.(check int) "count" 2 (Array.length specs)
  | Error msg -> Alcotest.failf "rejected: %s" msg);
  match Batch.parse_spec "algo2 8 1\nbogus 4 1\n" with
  | Error msg ->
      checkb "1-based line number" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "bad line accepted"

let () =
  Alcotest.run "colring-batch"
    [
      ( "determinism",
        [
          Alcotest.test_case "oriented journals byte-identical" `Quick
            test_oriented_journals;
          Alcotest.test_case "non-oriented journals byte-identical" `Quick
            test_non_oriented_journals;
          Alcotest.test_case "event journals byte-identical" `Quick
            test_event_journals;
          Alcotest.test_case "warm-core reuse is invisible" `Quick
            test_warm_reuse_is_invisible;
          Alcotest.test_case "mixed batch reports" `Quick
            test_mixed_batch_reports;
          Alcotest.test_case "snapshot cadence and exhaustion" `Quick
            test_snapshot_cadence_and_exhaustion;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest warm_core_agrees;
          Alcotest.test_case "every algorithm x random/fifo/lifo" `Quick
            test_every_algorithm_and_scheduler;
          Alcotest.test_case "disabled sink sees every event" `Quick
            test_disabled_sink_sees_every_event;
        ] );
      ( "graphs",
        [
          QCheck_alcotest.to_alcotest warm_graph_core_agrees;
          Alcotest.test_case "run_warm needs the plan's graph" `Quick
            test_run_warm_needs_the_plans_graph;
          Alcotest.test_case "graph batch journals byte-identical" `Quick
            test_graph_batch_journals;
        ] );
      ( "failure paths",
        [
          Alcotest.test_case "program raises mid-run" `Quick
            test_raise_mid_run;
          Alcotest.test_case "program raises in start" `Quick
            test_raise_in_start;
          Alcotest.test_case "exhausted budget" `Quick test_exhausted;
        ] );
      ( "spec parsing",
        [
          Alcotest.test_case "parse_line" `Quick test_parse_line;
          Alcotest.test_case "parse_spec line numbers" `Quick
            test_parse_spec_line_numbers;
          Alcotest.test_case "batch recovers after a raising job" `Quick
            test_batch_recovers_after_raise;
        ] );
      ( "serve",
        [
          Alcotest.test_case "byte-identical at any -j, chunking" `Quick
            test_serve_byte_identical;
          Alcotest.test_case "a raising job is answered alone" `Quick
            test_serve_raising_job;
        ] );
    ]
