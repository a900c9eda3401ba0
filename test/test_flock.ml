(* Batched-determinism tests: a flock-run job's journal and report are
   byte-identical to what a sequential Election.run produces for the
   same inputs — for every pool width and both pool modes.  This is
   the contract that makes `colring batch` a drop-in for a loop of
   `colring elect` calls. *)

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

let batch_journals ?(jobs = 1) ?(mode = Pool.Static) ?slots ?events specs =
  let chunks = Array.make (Array.length specs) "" in
  ignore
    (Batch.run ~jobs ~mode ?slots ?events
       ~journal:(fun i chunk -> chunks.(i) <- chunk)
       ~sched specs);
  chunks

let spec algorithm n seed = { Batch.algorithm; n; seed; id_max = 2 * n }

let check_byte_identical specs =
  let expected = Array.map (fun s -> sequential_journal s) specs in
  List.iter
    (fun (mode, mode_name) ->
      List.iter
        (fun jobs ->
          let got = batch_journals ~jobs ~mode specs in
          Array.iteri
            (fun i chunk ->
              checks
                (Printf.sprintf "job %d (%s -j%d)" i mode_name jobs)
                expected.(i) chunk)
            got)
        [ 1; 2; 4 ])
    [ (Pool.Static, "static"); (Pool.Steal, "steal") ]

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
  let got =
    batch_journals ~jobs:2 ~mode:Pool.Steal ~events:true specs
  in
  Array.iteri
    (fun i chunk -> checks (Printf.sprintf "job %d" i) expected.(i) chunk)
    got

let test_wave_split_is_invisible () =
  (* slots smaller than the batch forces several waves through one
     warm flock; reloading slots must not leak state across waves. *)
  let specs = Array.init 7 (fun i -> spec Election.Algo2 6 (i + 1)) in
  let expected = Array.map (fun s -> sequential_journal s) specs in
  let got = batch_journals ~jobs:2 ~slots:2 specs in
  Array.iteri
    (fun i chunk -> checks (Printf.sprintf "job %d" i) expected.(i) chunk)
    got

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
     flow through run_flock unchanged: journal and exhausted flag
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
  let flocked, flock_r =
    journal_of (fun sink ->
        let job =
          Election.job ~seed ~max_deliveries:100 ~snapshot_every:7 ~sink
            Election.Algo2 ~ids ~sched:(sched seed)
        in
        (Election.run_flock ~topo [| job |]).(0))
  in
  checkb "run exhausted" true seq_r.Election.exhausted;
  checkb "flock report matches" true (seq_r = flock_r);
  checks "journal" seq flocked

(* ------------------------------------------------------------------ *)
(* Differential oracle: the single-instance engine ({!Network}) and a
   one-slot flock run the same election through independent copies of
   the per-delivery path, so any drift in counting, event order or
   stamping shows up as a report field or a journal byte. *)

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

let network_and_flock_agree =
  QCheck.Test.make ~name:"network = 1-slot flock"
    ~count:150
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let algo = algorithms.(c.algo) in
      let topo = case_topology c in
      let ids = case_ids c in
      let b_net = Buffer.create 4096 and b_flock = Buffer.create 4096 in
      let r_net =
        Election.run_report ~seed:c.seed
          ~sink:(Sink.jsonl_buffer ~events:true b_net)
          algo ~topo ~ids ~sched:(case_sched c)
      in
      let job =
        Election.job ~seed:c.seed
          ~sink:(Sink.jsonl_buffer ~events:true b_flock)
          algo ~ids ~sched:(case_sched c)
      in
      let r_flock = (Election.run_flock ~slots:1 ~topo [| job |]).(0) in
      if r_net <> r_flock then
        QCheck.Test.fail_reportf "reports differ:@.network %s@.flock   %s"
          (fields_to_string r_net) (fields_to_string r_flock);
      String.equal (Buffer.contents b_net) (Buffer.contents b_flock))

(* A sink that is not [Sink.null] but reports [enabled = false] is
   still a consumer: both engines must hand it every event (only
   allocating records such as snapshots are gated on [enabled]). *)
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
  let fsink, fseen = counting () in
  let job =
    Election.job ~seed ~sink:fsink Election.Algo2 ~ids ~sched:(sched seed)
  in
  let fr = (Election.run_flock ~slots:1 ~topo [| job |]).(0) in
  checkb "flock report" true (r = fr);
  Alcotest.(check (list int)) "flock sees the same events" counted (fseen ())

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
   group must not trip over the aborted job's still-running slots. *)
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
  Alcotest.run "colring-flock"
    [
      ( "determinism",
        [
          Alcotest.test_case "oriented journals byte-identical" `Quick
            test_oriented_journals;
          Alcotest.test_case "non-oriented journals byte-identical" `Quick
            test_non_oriented_journals;
          Alcotest.test_case "event journals byte-identical" `Quick
            test_event_journals;
          Alcotest.test_case "wave split is invisible" `Quick
            test_wave_split_is_invisible;
          Alcotest.test_case "mixed batch reports" `Quick
            test_mixed_batch_reports;
          Alcotest.test_case "snapshot cadence and exhaustion" `Quick
            test_snapshot_cadence_and_exhaustion;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest network_and_flock_agree;
          Alcotest.test_case "disabled sink sees every event" `Quick
            test_disabled_sink_sees_every_event;
        ] );
      ( "spec parsing",
        [
          Alcotest.test_case "parse_line" `Quick test_parse_line;
          Alcotest.test_case "parse_spec line numbers" `Quick
            test_parse_spec_line_numbers;
          Alcotest.test_case "batch recovers after a raising job" `Quick
            test_batch_recovers_after_raise;
        ] );
    ]
