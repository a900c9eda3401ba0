(* Tests for the extensions beyond the core reproduction: Franklin's
   baseline, the ablation variants (each must actually exhibit its
   documented failure), the constructive Theorem 20 adversary, and the
   pulse-injection model-necessity experiment. *)

open Colring_engine
open Colring_core
module Rng = Colring_stats.Rng
module Classic = Colring_classic
module LB = Colring_lowerbound
module Mc = Colring_mc.Mc
module Spec = Colring_mc.Spec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Franklin *)

let run_franklin ~ids ~sched =
  Classic.Driver.run ~name:"franklin" ~expect_max:ids
    (fun v -> Classic.Franklin.program ~id:ids.(v))
    ~topo:(Topology.oriented (Array.length ids))
    ~sched

let test_franklin_basic () =
  let ids = [| 3; 9; 1; 7; 5; 2; 8; 4 |] in
  List.iter
    (fun sched ->
      let r = run_franklin ~ids ~sched in
      checkb (sched.Scheduler.name ^ " correct") true
        (r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated
       && not r.exhausted))
    (Scheduler.all_deterministic () @ [ Scheduler.random (Rng.create ~seed:5) ])

let test_franklin_small () =
  checkb "n=1" true
    (let r = run_franklin ~ids:[| 4 |] ~sched:Scheduler.fifo in
     r.leader = Some 0 && r.all_terminated);
  checkb "n=2" true
    (let r = run_franklin ~ids:[| 4; 9 |] ~sched:Scheduler.lifo in
     r.leader = Some 1 && r.all_terminated)

let prop_franklin =
  QCheck.Test.make ~name:"franklin random instances" ~count:100
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 20) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 50) in
      let r = run_franklin ~ids ~sched:(Scheduler.random (Rng.split rng)) in
      r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated
      && not r.exhausted)

(* ------------------------------------------------------------------ *)
(* Ablations: each broken variant must actually fail somewhere, and the
   real algorithms must pass the same gauntlet. *)

let gauntlet factory ~topo_of ~ids_of =
  (* Run a factory over a set of instances and schedulers; count
     failing runs. *)
  let failures = ref 0 and runs = ref 0 in
  List.iter
    (fun seed ->
      let ids = ids_of seed in
      let topo = topo_of seed ids in
      List.iter
        (fun sched ->
          incr runs;
          let f = Ablation.observe factory ~topo ~ids ~sched in
          if Ablation.failed f then incr failures)
        (Scheduler.all_deterministic ()
        @ [ Scheduler.random (Rng.create ~seed) ]))
    [ 1; 2; 3; 4; 5 ];
  (!failures, !runs)

let oriented_instances =
  ( (fun _ ids -> Topology.oriented (Array.length ids)),
    fun seed -> Ids.distinct (Rng.create ~seed) ~n:6 ~id_max:14 )

let test_ablation_no_lag_fails () =
  let topo_of, ids_of = oriented_instances in
  let failures, runs = gauntlet (fun ~id -> Ablation.algo2_no_lag ~id) ~topo_of ~ids_of in
  checkb
    (Printf.sprintf "no-lag variant fails somewhere (%d/%d)" failures runs)
    true (failures > 0)

let test_real_algo2_passes_gauntlet () =
  let topo_of, ids_of = oriented_instances in
  let failures, runs = gauntlet (fun ~id -> Algo2.program ~id) ~topo_of ~ids_of in
  checki (Printf.sprintf "algo2 never fails (%d runs)" runs) 0 failures

let test_ablation_same_virtual_ids_fails () =
  let ids_of seed = Ids.distinct (Rng.create ~seed) ~n:6 ~id_max:14 in
  let topo_of seed ids =
    Topology.random_non_oriented (Rng.create ~seed:(seed + 50)) (Array.length ids)
  in
  let failures, _ =
    gauntlet (fun ~id -> Ablation.algo3_same_virtual_ids ~id) ~topo_of ~ids_of
  in
  checkb "same-virtual-ids variant fails" true (failures > 0)

let test_ablation_no_absorption_never_quiesces () =
  let ids = [| 3; 7; 5; 1 |] in
  let f =
    Ablation.observe ~max_deliveries:5_000
      (fun ~id -> Ablation.algo1_no_absorption ~id)
      ~topo:(Topology.oriented 4) ~ids ~sched:Scheduler.fifo
  in
  checkb "exhausts the budget" true f.exhausted;
  checkb "kept sending the whole time" true (f.sends >= 5_000)

(* ------------------------------------------------------------------ *)
(* Theorem 20 adversary replay *)

let test_adversary_replay_mimicry () =
  List.iter
    (fun (k, n) ->
      let r = LB.Adversary.replay ~k ~n (fun ~id -> Algo2.program ~id) in
      checkb
        (Printf.sprintf "k=%d n=%d mimicry" k n)
        true r.mimicry;
      checkb "shared prefix meets corollary 24" true
        (r.shared_prefix >= r.formula_prefix);
      checkb "run sends at least the bound" true (r.sends >= r.bound))
    [ (16, 2); (64, 4); (128, 8); (64, 1) ]

let test_adversary_chooses_distinct_ids () =
  let r = LB.Adversary.replay ~k:64 ~n:8 (fun ~id -> Algo2.program ~id) in
  let sorted = Array.copy r.ids in
  Array.sort compare sorted;
  let distinct = ref true in
  for i = 0 to Array.length sorted - 2 do
    if sorted.(i) = sorted.(i + 1) then distinct := false
  done;
  checkb "distinct" true !distinct;
  Array.iter (fun id -> checkb "in range" true (id >= 1 && id <= 64)) r.ids

let test_best_group_matches_best_shared_prefix () =
  let tagged =
    LB.Solitude.extract_range (fun ~id -> Algo2.program ~id) ~lo:1 ~hi:100
  in
  let patterns = List.map snd tagged in
  List.iter
    (fun group ->
      let _, len = LB.Analysis.best_group tagged ~group in
      checki
        (Printf.sprintf "group %d" group)
        (LB.Analysis.best_shared_prefix patterns ~group)
        len)
    [ 1; 2; 3; 8; 20 ]

(* ------------------------------------------------------------------ *)
(* Model necessity: a single injected pulse breaks Algorithm 2. *)

let test_injection_breaks_algo2 () =
  let ids = [| 4; 9; 2; 7 |] in
  let net =
    Network.create (Topology.oriented 4) (fun v -> Algo2.program ~id:ids.(v))
  in
  (* Let the run make some progress, then let the channel "invent" one
     clockwise pulse out of node 0. *)
  for _ = 1 to 10 do
    ignore (Network.step net Scheduler.fifo)
  done;
  Network.inject net ~node:0 ~port:1 ();
  let result = Network.run ~max_deliveries:100_000 net Scheduler.fifo in
  let outputs = Network.outputs net in
  let leaders =
    Array.to_list outputs
    |> List.filter (fun (o : Output.t) ->
           Output.equal_role o.role Output.Leader)
    |> List.length
  in
  let healthy =
    result.quiescent && result.all_terminated && (not result.exhausted)
    && leaders = 1
    && result.sends = 1 + Formulas.algo2_total ~n:4 ~id_max:9
    && Metrics.post_termination_deliveries (Network.metrics net) = 0
  in
  checkb "one spurious pulse visibly corrupts the run" false healthy

let test_injection_counted () =
  let net =
    Network.create (Topology.oriented 2) (fun _ -> Network.silent_program)
  in
  Network.inject net ~node:0 ~port:1 ();
  checki "in flight" 1 (Network.in_flight net);
  checki "counted as send" 1 (Metrics.sends (Network.metrics net))

(* ------------------------------------------------------------------ *)
(* Differential testing: the blocking re-implementation of Algorithm 2
   must match the event-driven one observation for observation. *)

let final_counters net v =
  List.filter
    (fun (k, _) -> k <> "term_initiated")
    (Network.inspect net v)

let run_impl make_program ~ids ~sched =
  let n = Array.length ids in
  let net = Network.create (Topology.oriented n) (fun v -> make_program ids.(v)) in
  let result = Network.run net sched in
  (result, net)

let test_blocking_algo2_matches () =
  let instances =
    [
      ([| 4 |], 1);
      ([| 2; 5 |], 2);
      ([| 6; 2; 11; 5; 8; 3 |], 3);
      ([| 30; 7; 19; 2 |], 4);
    ]
  in
  List.iter
    (fun (ids, seed) ->
      List.iter
        (fun mk_sched ->
          let r1, net1 = run_impl (fun id -> Algo2.program ~id) ~ids ~sched:(mk_sched ()) in
          let r2, net2 =
            run_impl (fun id -> Algo2_blocking.program ~id) ~ids ~sched:(mk_sched ())
          in
          checki "sends" r1.sends r2.sends;
          checkb "both quiescent+terminated" true
            (r1.quiescent && r2.quiescent && r1.all_terminated
           && r2.all_terminated);
          Alcotest.(check (list int))
            "termination order" r1.termination_order r2.termination_order;
          for v = 0 to Array.length ids - 1 do
            checkb "same output" true
              (Network.output net1 v = Network.output net2 v);
            checkb "same counters" true
              (final_counters net1 v = final_counters net2 v)
          done)
        [
          (fun () -> Scheduler.fifo);
          (fun () -> Scheduler.lifo);
          (fun () -> Scheduler.random (Rng.create ~seed));
        ])
    instances

let prop_blocking_algo2_matches =
  QCheck.Test.make ~name:"blocking algo2 differential" ~count:60
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 16) (int_range 0 5_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 30) in
      let r1, net1 =
        run_impl (fun id -> Algo2.program ~id) ~ids
          ~sched:(Scheduler.random (Rng.create ~seed:(seed + 1)))
      in
      let r2, net2 =
        run_impl (fun id -> Algo2_blocking.program ~id) ~ids
          ~sched:(Scheduler.random (Rng.create ~seed:(seed + 1)))
      in
      r1.sends = r2.sends
      && r1.termination_order = r2.termination_order
      && Array.for_all
           (fun v -> Network.output net1 v = Network.output net2 v)
           (Array.init n Fun.id))

let test_exhaustive_terminal_equivalence () =
  (* The two Algorithm 2 implementations must have the same *set* of
     reachable terminal states (they do not share intermediate states —
     the blocking one stages mailbox pulses eagerly — but every
     schedule must end in the same unique configuration).  Sleep sets
     and state caching keep every terminal state reachable, so the
     checker's terminal callback sees the whole set. *)
  let ids = [| 2; 3; 1 |] in
  let terminals program =
    let acc = ref [] in
    let spec = Spec.election Election.Algo2 ~ids ~topo_seed:0 in
    (* 61 states. *)
    let r =
      Mc.check ~max_states:610
        {
          spec with
          Mc.make =
            (fun () ->
              Network.create (Topology.oriented 3) (fun v ->
                  program ~id:ids.(v)));
          terminal =
            (fun net ->
              acc := Network.fingerprint net :: !acc;
              spec.Mc.terminal net);
        }
    in
    checkb "complete" false r.Mc.stats.Mc.truncated;
    checkb "clean" true (r.Mc.counterexample = None);
    List.sort_uniq compare !acc
  in
  let a = terminals Algo2.program in
  let b = terminals Algo2_blocking.program in
  checki "one terminal state" 1 (List.length a);
  Alcotest.(check (list string)) "same terminal fingerprints" a b

(* ------------------------------------------------------------------ *)
(* Invariants module *)

let test_invariants_clean_on_algo2 () =
  let ids = [| 6; 2; 11; 5; 8 |] in
  let net =
    Network.create (Topology.oriented 5) (fun v -> Algo2.program ~id:ids.(v))
  in
  let checker = Invariants.attach net ~ids in
  let result =
    Network.run ~probe:(fun ~step -> Invariants.probe checker ~step) net
      (Scheduler.random (Rng.create ~seed:9))
  in
  checkb "terminated" true result.all_terminated;
  (match Invariants.violations checker with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "violation: %s"
        (Format.asprintf "%a" Invariants.pp_violation v));
  checkb "ok" true (Invariants.ok checker)

let test_invariants_catch_broken_algorithm () =
  (* The no-lag ablation must trip the Lemma 6/7 machinery or produce a
     bad run; at minimum the checker stays sound (never crashes) and
     the observed failure matches Ablation.observe. *)
  let ids = [| 6; 2; 11; 5; 8 |] in
  let net =
    Network.create (Topology.oriented 5) (fun v ->
        Ablation.algo2_no_lag ~id:ids.(v))
  in
  let checker = Invariants.attach net ~ids in
  let _ =
    Network.run ~max_deliveries:50_000
      ~probe:(fun ~step -> Invariants.probe checker ~step)
      net Scheduler.fifo
  in
  (* The broken variant lacks sigma counters for the CW direction?  No:
     it exposes only rho counters, so Lemma 6 checks are skipped; the
     checker must simply not produce spurious reports. *)
  checkb "checker total function" true
    (List.for_all (fun (v : Invariants.violation) -> v.step >= 0)
       (Invariants.violations checker))

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration (the model checker on small instances) *)

let verified ?(what = "") (r : Mc.result) =
  checkb (what ^ " complete") false r.Mc.stats.Mc.truncated;
  (match r.Mc.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "%s violation: %s" what ce.Mc.violation);
  checkb (what ^ " reached terminals") true (r.Mc.stats.Mc.schedules >= 1)

let test_explore_algo2_all_schedules_n2 () =
  (* Every ID pair in {1..4}^2, every schedule: Theorem 1 holds in all
     reachable executions. *)
  for a = 1 to 4 do
    for b = 1 to 4 do
      if a <> b then
        verified
          ~what:(Printf.sprintf "ids (%d,%d)" a b)
          (* At most 28 states. *)
          (Mc.check ~max_states:280
             (Spec.election Election.Algo2 ~ids:[| a; b |] ~topo_seed:0))
    done
  done

let test_explore_algo2_all_schedules_n3 () =
  (* 61 states. *)
  let r =
    Mc.check ~max_states:610
      (Spec.election Election.Algo2 ~ids:[| 2; 3; 1 |] ~topo_seed:0)
  in
  verified r;
  checkb "explored a real tree" true (r.Mc.stats.Mc.states > 50)

let test_explore_algo1_all_schedules () =
  (* 7 states. *)
  verified
    (Mc.check ~max_states:70
       (Spec.election Election.Algo1 ~ids:[| 2; 3 |] ~topo_seed:0))

let test_explore_algo1_duplicate_maxima () =
  (* Lemma 16/17 model-checked: with two copies of the maximal ID, every
     schedule ends quiescent with exactly the two max nodes in the
     Leader state and n*ID_max pulses.  [Spec.election] demands a
     unique leader, so the verdict is spelled out here. *)
  let ids = [| 3; 3; 1 |] in
  (* 21 states. *)
  let r =
    Mc.check ~max_states:210
      {
        Mc.name = "algo1 duplicate maxima";
        make =
          (fun () ->
            Network.create (Topology.oriented 3) (fun v ->
                Algo1.program ~id:ids.(v)));
        monitor = (fun () _ -> None);
        terminal =
          (fun net ->
            if
              Network.is_quiescent net
              && Metrics.sends (Network.metrics net) = 3 * 3
              && Array.for_all
                   (fun v ->
                     Output.equal_role (Network.output net v).Output.role
                       (if ids.(v) = 3 then Output.Leader
                        else Output.Non_leader))
                   (Array.init 3 Fun.id)
            then None
            else Some "not the Lemma 16/17 outcome");
        max_depth = (3 * 3) + 1;
        dedup = true;
        reduction = Mc.Sleep;
        symmetry = None;
        expect_violation = false;
      }
  in
  verified r

let test_explore_finds_ablation_bugs () =
  (* The no-lag ablation must have a reachable violation for some
     instance — exhaustive search finds it if any sampled scheduler
     could. *)
  let found =
    List.exists
      (fun ids ->
        (* One state: the violation is at the first delivery. *)
        (Mc.check ~max_states:10 (Spec.ablation Spec.No_lag ~ids ~topo_seed:0))
          .Mc.counterexample <> None)
      [ [| 1; 2 |]; [| 2; 1 |]; [| 3; 1 |]; [| 2; 3; 1 |] ]
  in
  checkb "exhaustive search exposes the no-lag bug" true found

let test_fingerprint_distinguishes () =
  let mk () =
    Network.create (Topology.oriented 2) (fun v -> Algo2.program ~id:(v + 1))
  in
  let a = mk () and b = mk () in
  checkb "same initial fingerprint" true
    (Network.fingerprint a = Network.fingerprint b);
  ignore (Network.step b Scheduler.fifo);
  checkb "diverges after a delivery" false
    (Network.fingerprint a = Network.fingerprint b)

(* ------------------------------------------------------------------ *)
(* Diagram *)

let diagram_lines ids =
  let net =
    Network.create ~sink:(Sink.memory ()) (Topology.oriented 2) (fun v ->
        Algo2.program ~id:ids.(v))
  in
  let _ = Network.run net Scheduler.fifo in
  match Network.trace net with
  | None -> Alcotest.fail "no trace"
  | Some tr ->
      String.split_on_char '\n' (Diagram.render tr ~n:2)
      |> List.filter (fun l -> l <> "")

let test_diagram_renders () =
  let lines = diagram_lines [| 2; 3 |] in
  let s = String.concat "\n" lines in
  checkb "has arrows" true
    (String.exists (fun c -> c = '>') s && String.exists (fun c -> c = '<') s);
  checkb "has termination marks" true (String.exists (fun c -> c = 'X') s);
  checkb "short run: no elision note" false
    (List.exists (String.starts_with ~prefix:"...") lines);
  (* n(2*ID_max+1) = 1202 deliveries alone exceed the 500-row cap:
     header, rule, 500 rows and the elision note. *)
  let lines = diagram_lines [| 300; 200 |] in
  checki "rows capped at 500" 503 (List.length lines);
  checkb "elision note last" true
    (String.starts_with ~prefix:"... (" (List.nth lines 502)
    && String.ends_with ~suffix:" rows elided)" (List.nth lines 502))

let () =
  Alcotest.run "colring-extensions"
    [
      ( "franklin",
        [
          Alcotest.test_case "basic" `Quick test_franklin_basic;
          Alcotest.test_case "small rings" `Quick test_franklin_small;
          QCheck_alcotest.to_alcotest prop_franklin;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "no-lag fails" `Quick test_ablation_no_lag_fails;
          Alcotest.test_case "algo2 passes gauntlet" `Quick
            test_real_algo2_passes_gauntlet;
          Alcotest.test_case "same-virtual-ids fails" `Quick
            test_ablation_same_virtual_ids_fails;
          Alcotest.test_case "no-absorption never quiesces" `Quick
            test_ablation_no_absorption_never_quiesces;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "mimicry" `Quick test_adversary_replay_mimicry;
          Alcotest.test_case "distinct ids" `Quick
            test_adversary_chooses_distinct_ids;
          Alcotest.test_case "best group consistent" `Quick
            test_best_group_matches_best_shared_prefix;
        ] );
      ( "injection",
        [
          Alcotest.test_case "breaks algo2" `Quick test_injection_breaks_algo2;
          Alcotest.test_case "counted" `Quick test_injection_counted;
        ] );
      ( "differential",
        [
          Alcotest.test_case "blocking algo2 matches" `Quick
            test_blocking_algo2_matches;
          QCheck_alcotest.to_alcotest prop_blocking_algo2_matches;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean on algo2" `Quick
            test_invariants_clean_on_algo2;
          Alcotest.test_case "sound on broken variant" `Quick
            test_invariants_catch_broken_algorithm;
        ] );
      ( "explore",
        [
          Alcotest.test_case "algo2 n=2 all schedules" `Quick
            test_explore_algo2_all_schedules_n2;
          Alcotest.test_case "algo2 n=3 all schedules" `Quick
            test_explore_algo2_all_schedules_n3;
          Alcotest.test_case "algo1 all schedules" `Quick
            test_explore_algo1_all_schedules;
          Alcotest.test_case "lemma 16/17 all schedules" `Quick
            test_explore_algo1_duplicate_maxima;
          Alcotest.test_case "finds ablation bugs" `Quick
            test_explore_finds_ablation_bugs;
          Alcotest.test_case "fingerprints" `Quick test_fingerprint_distinguishes;
          Alcotest.test_case "impl-equivalent terminals" `Quick
            test_exhaustive_terminal_equivalence;
        ] );
      ("diagram", [ Alcotest.test_case "renders" `Quick test_diagram_renders ]);
    ]
