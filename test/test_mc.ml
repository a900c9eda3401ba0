(* Tests for the lib/mc schedule-space model checker: exhaustive
   verification of the paper's algorithms and the classic baselines on
   small rings, guaranteed minimized counterexamples for every
   ablation variant, schedule replay (including the
   Scheduler.of_schedule bridge back into the ordinary run loop),
   depth budgets, state budgets, and worker-count independence. *)

open Colring_engine
open Colring_core
open Colring_mc
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A fixed scrambled assignment so the max ID is not at node 0. *)
let ids n = Ids.distinct (Rng.create ~seed:1) ~n ~id_max:n

let correct_targets =
  [
    "algo1";
    "algo2";
    "algo3-doubled";
    "algo3-improved";
    "chang-roberts";
    "lelann";
    "hirschberg-sinclair";
    "peterson";
    "franklin";
  ]

let ablation_targets =
  [ "ablation:no-lag"; "ablation:same-virtual-ids"; "ablation:no-absorption" ]

(* States each target expands: ring targets at n = 3 (ids 3,
   topo_seed 2), graph targets on their fixed instance.  Every check
   in this file runs under an explicit [max_states] of at least ten
   times its real count, so a correct run never truncates, and a fault
   that makes states look new (a broken undo) fails in seconds instead
   of exploring until memory runs out. *)
let real_states =
  [
    ("algo1", 10);
    ("algo2", 68);
    ("algo3-doubled", 10_464);
    ("algo3-improved", 3_602);
    ("chang-roberts", 10);
    ("lelann", 10);
    ("hirschberg-sinclair", 41_456);
    ("peterson", 13);
    ("franklin", 973);
    ("ablation:no-lag", 1);
    ("ablation:same-virtual-ids", 29);
    ("ablation:no-absorption", 7);
    ("walk:theta3", 43);
    ("walk:k4", 41);
    ("walk:bowtie", 89);
    ("ablation:bridge", 10);
    ("ablation:rotor", 21);
  ]

let max_states target = 10 * List.assoc target real_states

(* ------------------------------------------------------------------ *)
(* Exhaustive verification of everything that should be correct *)

let test_correct_targets_verify_at_n3 () =
  List.iter
    (fun target ->
      let (Spec.Packed spec) = Spec.of_target target ~ids:(ids 3) ~topo_seed:2 in
      checkb (target ^ " does not expect a violation") false
        spec.Mc.expect_violation;
      let r = Mc.check ~max_states:(max_states target) spec in
      checkb (target ^ " explored exhaustively") false r.Mc.stats.Mc.truncated;
      checkb
        (target ^ " reached at least one terminal state")
        true
        (r.Mc.stats.Mc.schedules >= 1);
      checkb (target ^ " has no counterexample") true
        (r.Mc.counterexample = None))
    correct_targets

let test_algo2_exhaustive_at_n4 () =
  let spec = Spec.election Election.Algo2 ~ids:(ids 4) ~topo_seed:2 in
  (* 644 states. *)
  let r = Mc.check ~max_states:6_440 spec in
  checkb "exhaustive" false r.Mc.stats.Mc.truncated;
  checkb "verified" true (r.Mc.counterexample = None);
  (* Every full schedule runs the exact pulse total: n(2*ID_max+1). *)
  checki "max depth is the paper total"
    (Formulas.algo2_total ~n:4 ~id_max:4)
    r.Mc.stats.Mc.max_depth_seen;
  checkb "sleep sets pruned something" true (r.Mc.stats.Mc.sleep_pruned > 0);
  checkb "state cache pruned something" true (r.Mc.stats.Mc.dedup_pruned > 0)

(* ------------------------------------------------------------------ *)
(* Ablations: the checker MUST break every broken variant *)

(* Replay [schedule] and return the violation, [None] when the
   schedule is violation-free or does not even fit the run. *)
let violation_of spec schedule =
  match Mc.replay spec schedule with
  | _, v -> v
  | exception Invalid_argument _ -> None

let drop_one schedule i =
  Array.init
    (Array.length schedule - 1)
    (fun j -> if j < i then schedule.(j) else schedule.(j + 1))

let test_ablations_yield_minimized_counterexamples () =
  List.iter
    (fun target ->
      let (Spec.Packed spec) = Spec.of_target target ~ids:(ids 3) ~topo_seed:2 in
      checkb (target ^ " expects a violation") true spec.Mc.expect_violation;
      let r = Mc.check ~max_states:(max_states target) spec in
      match r.Mc.counterexample with
      | None -> Alcotest.failf "%s: no counterexample found" target
      | Some ce ->
          (* Replayable: the minimized schedule reproduces the same
             violation on a fresh instance. *)
          (match Mc.replay spec ce.Mc.schedule with
          | _, Some v ->
              Alcotest.(check string) (target ^ " reproduces") ce.Mc.violation v
          | _, None -> Alcotest.failf "%s: counterexample does not replay" target);
          (* Confirmed through the engine's ordinary run loop
             (Scheduler.of_schedule), not just the checker's forcing
             path. *)
          checkb (target ^ " confirmed via of_schedule") true
            (Mc.confirm spec ce);
          (* 1-minimal: dropping any single delivery loses the bug
             (the depth violation is minimal by construction). *)
          if ce.Mc.violation <> Mc.depth_violation then
            Array.iteri
              (fun i _ ->
                checkb
                  (Printf.sprintf "%s minimal at %d" target i)
                  true
                  (violation_of spec (drop_one ce.Mc.schedule i) = None))
              ce.Mc.schedule)
    ablation_targets

(* Ring and graph specs share one set of verdict pieces; each names the
   closed form it holds a run to (the paper's, or the walk's), and the
   violation texts are what `colring check` prints and journals. *)
let test_violation_wording () =
  (* The walk specs below expand at most 42 states. *)
  let violation ?(max_states = 420) spec =
    match (Mc.check ~max_states spec).Mc.counterexample with
    | Some ce -> ce.Mc.violation
    | None -> "no counterexample"
  in
  List.iter
    (fun (target, ids, want) ->
      let (Spec.Packed spec) = Spec.of_target target ~ids ~topo_seed:2 in
      Alcotest.(check string) target want
        (violation ~max_states:(max_states target) spec))
    [
      ( "ablation:no-lag",
        ids 3,
        "node 2 terminated before node 0, out of the Theorem 1 order" );
      ("ablation:no-absorption", ids 3, "sends 10 exceed the paper bound 9");
      ( "ablation:same-virtual-ids",
        ids 3,
        "sends 18 at quiescence, the paper's formula says 33" );
      ( "ablation:bridge",
        [||],
        "node 2 elected Leader but the maximum id is at node 5" );
      ("ablation:rotor", [||], "2 leaders");
    ];
  (* A walk spec run on other ids than it was built for: more pulses
     break the walk bound, fewer miss the walk formula, and the same
     ids moved elsewhere elect the wrong node. *)
  let module Gelection = Colring_graph.Gelection in
  let g = Colring_graph.Gtopology.theta 0 1 1 in
  let plan = Gelection.plan g in
  let ids = [| 2; 4; 1; 3 |] in
  let run_on other =
    violation
      {
        (Spec.walk_election g ~ids) with
        Mc.make = (fun () -> Gelection.make plan ~ids:other);
      }
  in
  let bound = Gelection.expected_sends plan ~ids in
  Alcotest.(check string) "walk bound"
    (Printf.sprintf "sends %d exceed the walk bound %d" (bound + 1) bound)
    (run_on [| 2; 5; 1; 3 |]);
  Alcotest.(check string) "walk formula"
    (Printf.sprintf "sends %d at quiescence, the walk formula says %d"
       (Gelection.expected_sends plan ~ids:[| 2; 3; 1; 2 |])
       bound)
    (run_on [| 2; 3; 1; 2 |]);
  Alcotest.(check string) "covered maximum id"
    "node 0 elected Leader but the covered maximum id is at node 1"
    (run_on [| 4; 2; 1; 3 |])

(* ------------------------------------------------------------------ *)
(* Graph checking: the same Mc.check on graph cores, through the same
   target table (a graph target ignores [ids] and checks its fixed
   instance) *)

let graph_correct_targets = [ "walk:theta3"; "walk:k4"; "walk:bowtie" ]
let graph_target target = Spec.of_target target ~ids:[||] ~topo_seed:0

let test_graph_targets_verify_exhaustively () =
  List.iter
    (fun target ->
      let (Spec.Packed spec) = graph_target target in
      checkb (target ^ " does not expect a violation") false
        spec.Mc.expect_violation;
      let r = Mc.check ~jobs:2 ~max_states:(max_states target) spec in
      checkb (target ^ " explored exhaustively") false r.Mc.stats.Mc.truncated;
      checkb
        (target ^ " reached at least one terminal state")
        true
        (r.Mc.stats.Mc.schedules >= 1);
      checkb (target ^ " has no counterexample") true
        (r.Mc.counterexample = None);
      (* The source-set reduction must agree with plain sleep sets on
         the verdict while exploring no more of the space. *)
      (* Sleep sets alone expand 166 (walk:k4) to 658 (walk:bowtie)
         states. *)
      let sleepy =
        Mc.check ~jobs:2 ~max_states:6_580
          { spec with Mc.reduction = Mc.Sleep }
      in
      checkb
        (target ^ " sleep-only run is exhaustive")
        false sleepy.Mc.stats.Mc.truncated;
      checkb
        (target ^ " sleep-only run agrees")
        true
        (sleepy.Mc.counterexample = None);
      checkb
        (target ^ " sleep-only run pruned something")
        true
        (sleepy.Mc.stats.Mc.sleep_pruned > 0);
      checkb
        (target ^ " source sets do not enlarge the space")
        true
        (r.Mc.stats.Mc.states <= sleepy.Mc.stats.Mc.states))
    graph_correct_targets

let test_bridge_ablation_minimized_counterexample () =
  let (Spec.Packed spec) = graph_target "ablation:bridge" in
  checkb "expects a violation" true spec.Mc.expect_violation;
  let r = Mc.check ~max_states:(max_states "ablation:bridge") spec in
  match r.Mc.counterexample with
  | None -> Alcotest.fail "ablation:bridge: no counterexample found"
  | Some ce ->
      (* Replayable on a fresh instance with the same violation. *)
      (match Mc.replay spec ce.Mc.schedule with
      | _, Some v -> Alcotest.(check string) "reproduces" ce.Mc.violation v
      | _, None -> Alcotest.fail "counterexample does not replay");
      checkb "confirmed via of_schedule" true (Mc.confirm spec ce);
      (* 1-minimal: quiescence needs every pulse delivered, so the
         minimal schedule is one complete run of the covered walk. *)
      Array.iteri
        (fun i _ ->
          checkb
            (Printf.sprintf "minimal at %d" i)
            true
            (violation_of spec (drop_one ce.Mc.schedule i) = None))
        ce.Mc.schedule

let test_graph_check_jobs_independence () =
  List.iter
    (fun target ->
      let (Spec.Packed spec) = graph_target target in
      let max_states = max_states target in
      let r1 = Mc.check ~jobs:1 ~max_states spec in
      let r4 = Mc.check ~jobs:4 ~max_states spec in
      checkb (target ^ " identical for -j 1 and -j 4") true (r1 = r4))
    [ "walk:k4"; "ablation:bridge" ]

(* ------------------------------------------------------------------ *)
(* Worker-count independence *)

let test_results_independent_of_jobs () =
  List.iter
    (fun target ->
      let (Spec.Packed spec) = Spec.of_target target ~ids:(ids 3) ~topo_seed:2 in
      let max_states = max_states target in
      let r1 = Mc.check ~jobs:1 ~max_states spec in
      let r4 = Mc.check ~jobs:4 ~max_states spec in
      checkb (target ^ " identical for -j 1 and -j 4") true (r1 = r4))
    [ "algo2"; "algo3-improved"; "ablation:no-lag"; "franklin" ]

(* ------------------------------------------------------------------ *)
(* Replay: force_step-driven and Scheduler.of_schedule-driven runs
   land in the same state *)

let test_of_schedule_matches_force_step_replay () =
  let spec = Spec.ablation Spec.No_lag ~ids:(ids 3) ~topo_seed:2 in
  let r = Mc.check ~max_states:(max_states "ablation:no-lag") spec in
  let ce = Option.get r.Mc.counterexample in
  let via_replay, _ = Mc.replay spec ce.Mc.schedule in
  let via_sched = spec.Mc.make () in
  let sched = Scheduler.of_schedule ce.Mc.schedule in
  Array.iter (fun _ -> ignore (Network.step via_sched sched)) ce.Mc.schedule;
  Alcotest.(check string)
    "same state either way"
    (Network.fingerprint via_replay)
    (Network.fingerprint via_sched)

let test_of_schedule_rejects_empty_link_and_delegates () =
  let make () =
    Network.create (Topology.oriented 3) (fun v -> Algo2.program ~id:(v + 1))
  in
  (* A prefix of real choices, then fifo finishes the run. *)
  let net = make () in
  let l0 = Network.enabled_link net ~after:(-1) in
  let result =
    Network.run net (Scheduler.of_schedule [| l0 |])
  in
  checkb "run completed under the hybrid scheduler" true result.quiescent;
  (* Scheduling a drained link is a contract violation, not a skip. *)
  let net = make () in
  let empty_link = Network.enabled_link net ~after:(-1) + 1 in
  let bad = Scheduler.of_schedule [| empty_link |] in
  checkb "empty link rejected" true
    (match Network.run net bad with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Budgets and guards *)

let toy ~max_depth ~monitor =
  {
    Mc.name = "toy";
    make =
      (fun () ->
        Network.create (Topology.oriented 2) (fun v -> Algo1.program ~id:(v + 1)));
    monitor;
    terminal = (fun _ -> None);
    max_depth;
    dedup = false;
    reduction = Mc.Sleep;
    symmetry = None;
    expect_violation = true;
  }

let test_depth_budget_is_a_violation () =
  (* Algorithm 1 on ids {1,2} needs 4 deliveries; a budget of 2 makes
     every schedule a depth violation, reported (not raised) and left
     unshrunk (every proper subsequence is below the budget). *)
  let r =
    Mc.check ~max_states:40 (toy ~max_depth:2 ~monitor:(fun () _ -> None))
  in
  match r.Mc.counterexample with
  | Some ce ->
      Alcotest.(check string) "depth violation" Mc.depth_violation ce.Mc.violation;
      checki "schedule at the budget" 2 (Array.length ce.Mc.schedule)
  | None -> Alcotest.fail "expected a depth violation"

let test_initial_state_violation_is_empty_schedule () =
  let r =
    Mc.check ~max_states:10
      (toy ~max_depth:8 ~monitor:(fun () _ -> Some "broken at birth"))
  in
  match r.Mc.counterexample with
  | Some ce ->
      Alcotest.(check string) "violation" "broken at birth" ce.Mc.violation;
      checki "empty schedule" 0 (Array.length ce.Mc.schedule)
  | None -> Alcotest.fail "expected an initial-state violation"

let test_max_states_reports_truncation () =
  let spec = Spec.election (Election.Algo3 Algo3.Doubled) ~ids:(ids 3) ~topo_seed:2 in
  let r = Mc.check ~max_states:10 spec in
  checkb "truncated" true r.Mc.stats.Mc.truncated

let test_link_mask_guard () =
  (* 31 nodes = 62 directed links: beyond the int sleep-set masks. *)
  let spec = Spec.election Election.Algo1 ~ids:(ids 31) ~topo_seed:2 in
  checkb "guarded" true
    (match Mc.check ~max_states:10 spec with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_max_states_budget_is_global () =
  (* The budget caps states expanded across ALL frontier units, not
     per unit: a truncated run never reports more states than the
     budget, and truncation is bit-identical across worker counts. *)
  let spec =
    Spec.election (Election.Algo3 Algo3.Doubled) ~ids:(ids 4) ~topo_seed:2
  in
  let budget = 500 in
  let r1 = Mc.check ~jobs:1 ~max_states:budget spec in
  checkb "truncated" true r1.Mc.stats.Mc.truncated;
  checkb "global cap respected" true (r1.Mc.stats.Mc.states <= budget);
  checkb "made real progress" true (r1.Mc.stats.Mc.states > budget / 2);
  let r4 = Mc.check ~jobs:4 ~max_states:budget spec in
  checkb "truncation identical across jobs" true (r1 = r4)

let test_replay_mode_equivalence () =
  (* The same spec on the same programs made [Opaque] backtracks by
     prefix replay instead of undo.  The mode must be invisible in the
     results: only the two backtracking counters may differ.  n=4 is
     big enough for exploration to reach the parallel units (n=3 fits
     inside the seed BFS, which always replays). *)
  let ids = ids 4 in
  let topo = Topology.oriented 4 in
  let backtracking_free (r : Mc.result) =
    {
      r with
      Mc.stats =
        { r.Mc.stats with Mc.undone_deliveries = 0; replayed_deliveries = 0 };
    }
  in
  (* At most 644 states (algo2). *)
  let max_states = 6_440 in
  List.iter
    (fun (name, spec, program) ->
      let undo = Mc.check ~max_states spec in
      let opaque v =
        let p = program ~id:ids.(v) in
        let view () = Network.counters p.Network.state in
        { p with Network.state = Opaque view }
      in
      let replay =
        Mc.check ~max_states
          { spec with Mc.make = (fun () -> Network.create topo opaque) }
      in
      checkb (name ^ ": replay mode undoes nothing") true
        (replay.Mc.stats.Mc.undone_deliveries = 0);
      checkb (name ^ ": same result in both modes") true
        (backtracking_free replay = backtracking_free undo))
    [
      ("algo2", Spec.election Election.Algo2 ~ids ~topo_seed:2, Algo2.program);
      ( "ablation:no-absorption",
        Spec.ablation Spec.No_absorption ~ids ~topo_seed:2,
        Ablation.algo1_no_absorption );
    ];
  (* Ablations can die inside the seed BFS, so only the exhaustive
     target must show undo activity. *)
  let spec = Spec.election Election.Algo2 ~ids ~topo_seed:2 in
  checkb "algo2 uses undo by default" true
    ((Mc.check ~max_states spec).Mc.stats.Mc.undone_deliveries > 0)

(* Every state reachable within the spec's depth budget, visited by
   force_step_undo/undo_step and keyed as the checker keys a state
   (progress counters, then the fingerprint).  States that share a key
   must hold the same registers on every node: the key reads only each
   program's view, so this is what makes merging states on it sound.
   Returns the number of distinct keys and of conflicting revisits;
   fails past [budget] keys (the largest case has about 26k), so a
   broken undo ends the test instead of exploring for minutes. *)
let key_conflicts ?(budget = 200_000) (Spec.Packed spec) =
  let net = spec.Mc.make () in
  checkb (spec.Mc.name ^ " is undo-capable") true (Network.undo_capable net);
  let key () =
    let m = Network.metrics net in
    Printf.sprintf "%d/%d/%d#%s" (Metrics.sends m) (Metrics.deliveries m)
      (Metrics.post_termination_deliveries m)
      (Network.fingerprint net)
  in
  let seen = Hashtbl.create 4096 in
  let conflicts = ref 0 in
  let rec visit depth =
    let k = key () in
    let regs = Array.init (Network.size net) (Network.registers net) in
    match Hashtbl.find_opt seen k with
    | Some r -> if r <> regs then incr conflicts
    | None ->
        Hashtbl.add seen k regs;
        if Hashtbl.length seen > budget then
          Alcotest.failf "%s: more than %d states" spec.Mc.name budget;
        if depth < spec.Mc.max_depth then begin
          let rec each after =
            let link = Network.enabled_link net ~after in
            if link >= 0 then begin
              let u = Network.force_step_undo net ~link in
              visit (depth + 1);
              Network.undo_step net u;
              each link
            end
          in
          each (-1)
        end
  in
  visit 0;
  (Hashtbl.length seen, !conflicts)

let test_key_determines_registers () =
  let case target n =
    let (Spec.Packed spec as packed) =
      Spec.of_target target ~ids:(ids n) ~topo_seed:2
    in
    if spec.Mc.dedup then begin
      let states, conflicts = key_conflicts packed in
      let name = Printf.sprintf "%s n=%d" target n in
      checkb (name ^ " explored past the root") true (states > 1);
      checki (name ^ " key conflicts") 0 conflicts;
      1
    end
    else 0
  in
  let cases =
    List.fold_left
      (fun k target ->
        match Spec.fixed_ids target with
        | Some ids -> k + case target (Array.length ids)
        | None -> k + case target 3 + case target 4)
      0 Spec.targets
  in
  checki "cases" 21 cases

(* ------------------------------------------------------------------ *)
(* Scale: n=5 and n=6 exhaustive verification *)

let test_verification_scale_n5_n6 () =
  let verify target n ~states =
    let (Spec.Packed spec) = Spec.of_target target ~ids:(ids n) ~topo_seed:2 in
    let r = Mc.check ~max_states:(10 * states) spec in
    checkb (Printf.sprintf "%s n=%d exhaustive" target n) false
      r.Mc.stats.Mc.truncated;
    checkb (Printf.sprintf "%s n=%d verified" target n) true
      (r.Mc.counterexample = None);
    checkb
      (Printf.sprintf "%s n=%d reached a terminal state" target n)
      true
      (r.Mc.stats.Mc.schedules >= 1)
  in
  List.iter
    (fun (t, states) -> verify t 5 ~states)
    [ ("algo1", 26); ("algo2", 1_125); ("chang-roberts", 16) ];
  List.iter
    (fun (t, states) -> verify t 6 ~states)
    [ ("algo1", 37); ("algo2", 6_357) ]

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: the anonymous relay ring *)

let test_relay_symmetry_reduction () =
  let spec = Spec.anon_relay ~n:5 in
  (* 77 states, 123 without the symmetry reduction. *)
  let r = Mc.check ~max_states:770 spec in
  checkb "exhaustive" false r.Mc.stats.Mc.truncated;
  checkb "verified" true (r.Mc.counterexample = None);
  checkb "reached a terminal state" true (r.Mc.stats.Mc.schedules >= 1);
  (* Dropping the rotation canonicalization must not change the
     verdict, only enlarge the explored quotient. *)
  let plain = Mc.check ~max_states:1_230 { spec with Mc.symmetry = None } in
  checkb "plain run exhaustive" false plain.Mc.stats.Mc.truncated;
  checkb "plain run agrees" true (plain.Mc.counterexample = None);
  checkb "symmetry shrinks the space" true
    (r.Mc.stats.Mc.states < plain.Mc.stats.Mc.states)

(* ------------------------------------------------------------------ *)
(* Properties: undo = replay, and inductive invariants on samples *)

(* Drive [plen] random deliveries, then [slen] more through the
   incremental-undo path, roll them back, and require the state to
   match both the pre-suffix fingerprint and a fresh replay of the
   prefix — the exact contract the checker's backtracker leans on.
   Then drive both networks through [slen] more equal deliveries:
   program state the fingerprint does not show (such as the output a
   program last published) must have been restored too. *)
let undo_holds ~make (plen, slen, seed) =
  let rng = Rng.create ~seed in
  let net = make () in
  let prefix = ref [] in
  let pick net =
    let count = Network.enabled_count net in
    if count = 0 then None
    else begin
      let k = Rng.int rng count in
      let l = ref (Network.enabled_link net ~after:(-1)) in
      for _ = 1 to k do
        l := Network.enabled_link net ~after:!l
      done;
      Some !l
    end
  in
  (try
     for _ = 1 to plen do
       match pick net with
       | None -> raise Exit
       | Some link ->
           Network.force_step net ~link;
           prefix := link :: !prefix
     done
   with Exit -> ());
  let fp0 = Network.fingerprint net in
  let undos = ref [] in
  (try
     for _ = 1 to slen do
       match pick net with
       | None -> raise Exit
       | Some link -> undos := Network.force_step_undo net ~link :: !undos
     done
   with Exit -> ());
  List.iter (fun u -> Network.undo_step net u) !undos;
  let replayed = make () in
  List.iter (fun link -> Network.force_step replayed ~link) (List.rev !prefix);
  let rec agree k =
    k = 0
    ||
    match pick net with
    | None -> true
    | Some link ->
        Network.force_step net ~link;
        Network.force_step replayed ~link;
        String.equal (Network.fingerprint net) (Network.fingerprint replayed)
        && agree (k - 1)
  in
  String.equal (Network.fingerprint net) fp0
  && String.equal (Network.fingerprint replayed) fp0
  && agree slen

let arb_undo =
  QCheck.make
    ~print:(fun (p, s, seed) -> Printf.sprintf "prefix=%d suffix=%d seed=%d" p s seed)
    QCheck.Gen.(triple (int_range 0 30) (int_range 0 15) (int_range 0 10_000))

(* Algorithms 1, 2 and 3 by turns (the seed picks one). *)
let prop_undo_ring =
  QCheck.Test.make ~name:"ring undo-after-suffix = replay-from-prefix" ~count:300
    arb_undo (fun ((_, _, seed) as inst) ->
      let program ~id =
        match seed mod 3 with
        | 0 -> Algo1.program ~id
        | 1 -> Algo2.program ~id
        | _ -> Algo3.program ~scheme:Algo3.Improved ~id
      in
      undo_holds
        ~make:(fun () ->
          Network.create (Topology.oriented 4) (fun v -> program ~id:(v + 1)))
        inst)

let prop_undo_graph =
  QCheck.Test.make ~name:"graph undo-after-suffix = replay-from-prefix"
    ~count:100 arb_undo
    (fun inst ->
      let (Spec.Packed spec) = graph_target "walk:theta3" in
      undo_holds ~make:spec.Mc.make inst)

let arb_ring_instance =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 3 5) (int_range 0 10_000))

let inductive_ids (n, seed) =
  Ids.distinct (Rng.create ~seed) ~n ~id_max:(n + 5)

let prop_inductive_algo1 =
  QCheck.Test.make ~name:"algo1 lemmas hold on sampled walks" ~count:15
    arb_ring_instance (fun ((_, seed) as inst) ->
      Inductive.ok
        (Inductive.algo1 ~ids:(inductive_ids inst) ~seed ~walks:4 ~max_steps:40))

let prop_inductive_algo2 =
  QCheck.Test.make ~name:"algo2 lemmas hold on sampled walks" ~count:15
    arb_ring_instance (fun ((_, seed) as inst) ->
      Inductive.ok
        (Inductive.algo2 ~ids:(inductive_ids inst) ~seed ~walks:4 ~max_steps:40))

let prop_inductive_chang_roberts =
  QCheck.Test.make ~name:"chang-roberts btw invariant is one-step closed"
    ~count:15 arb_ring_instance
    (fun ((_, seed) as inst) ->
      let v =
        Inductive.chang_roberts ~ids:(inductive_ids inst) ~seed ~walks:4
          ~max_steps:40
      in
      Inductive.ok v && v.Inductive.transitions > 0)

let test_randomized_targets_rejected () =
  List.iter
    (fun target ->
      checkb (target ^ " rejected") true
        (match Spec.of_target target ~ids:(ids 3) ~topo_seed:2 with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ "itai-rodeh"; "algo3-resample"; "no-such-algorithm" ]

let () =
  Alcotest.run "colring-mc"
    [
      ( "verify",
        [
          Alcotest.test_case "all correct targets at n=3" `Quick
            test_correct_targets_verify_at_n3;
          Alcotest.test_case "algo2 exhaustive at n=4" `Quick
            test_algo2_exhaustive_at_n4;
          Alcotest.test_case "n=5 and n=6 exhaustive" `Quick
            test_verification_scale_n5_n6;
          Alcotest.test_case "anonymous relay under rotation symmetry" `Quick
            test_relay_symmetry_reduction;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "minimized counterexamples" `Quick
            test_ablations_yield_minimized_counterexamples;
          Alcotest.test_case "violation wording" `Quick test_violation_wording;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "walk election verified exhaustively" `Quick
            test_graph_targets_verify_exhaustively;
          Alcotest.test_case "bridge ablation counterexample" `Quick
            test_bridge_ablation_minimized_counterexample;
          Alcotest.test_case "graph jobs independence" `Quick
            test_graph_check_jobs_independence;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs independence" `Quick
            test_results_independent_of_jobs;
          Alcotest.test_case "replay mode equivalence" `Quick
            test_replay_mode_equivalence;
          Alcotest.test_case "key determines every register" `Quick
            test_key_determines_registers;
        ] );
      ( "replay",
        [
          Alcotest.test_case "of_schedule matches force_step" `Quick
            test_of_schedule_matches_force_step_replay;
          Alcotest.test_case "of_schedule contract" `Quick
            test_of_schedule_rejects_empty_link_and_delegates;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "depth budget" `Quick test_depth_budget_is_a_violation;
          Alcotest.test_case "initial violation" `Quick
            test_initial_state_violation_is_empty_schedule;
          Alcotest.test_case "max states" `Quick test_max_states_reports_truncation;
          Alcotest.test_case "max states is global" `Quick
            test_max_states_budget_is_global;
          Alcotest.test_case "link mask guard" `Quick test_link_mask_guard;
          Alcotest.test_case "randomized rejected" `Quick
            test_randomized_targets_rejected;
        ] );
      ( "properties",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_undo_ring;
            prop_undo_graph;
            prop_inductive_algo1;
            prop_inductive_algo2;
            prop_inductive_chang_roberts;
          ] );
    ]
