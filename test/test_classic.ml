(* Tests for the classic content-carrying baselines: correct winner,
   termination, message-count bounds and exact counts where known. *)

open Colring_engine
open Colring_classic
module Rng = Colring_stats.Rng
module Ids = Colring_core.Ids

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let oriented n = Topology.oriented n

let run_cr ~ids ~sched =
  Driver.run ~name:"chang-roberts" ~expect_max:ids
    (fun v -> Chang_roberts.program ~id:ids.(v))
    ~topo:(oriented (Array.length ids))
    ~sched

let run_ll ~ids ~sched =
  Driver.run ~name:"lelann" ~expect_max:ids
    (fun v -> Lelann.program ~id:ids.(v))
    ~topo:(oriented (Array.length ids))
    ~sched

let run_hs ~ids ~sched =
  Driver.run ~name:"hs" ~expect_max:ids
    (fun v -> Hirschberg_sinclair.program ~id:ids.(v))
    ~topo:(oriented (Array.length ids))
    ~sched

let run_peterson ~ids ~sched =
  Driver.run ~name:"peterson" ~expect_max:ids
    (fun v -> Peterson.program ~id:ids.(v))
    ~topo:(oriented (Array.length ids))
    ~sched

let run_ir ?(seed = 0) ~n ~sched () =
  Driver.run ~seed ~name:"itai-rodeh"
    (fun _ -> Itai_rodeh.program ~n ~range:8)
    ~topo:(oriented n) ~sched

let all_schedulers () =
  Scheduler.all_deterministic () @ [ Scheduler.random (Rng.create ~seed:3) ]

(* ------------------------------------------------------------------ *)

let test_chang_roberts_basic () =
  let ids = [| 3; 9; 1; 7; 5 |] in
  List.iter
    (fun sched ->
      let r = run_cr ~ids ~sched in
      checkb (sched.Scheduler.name ^ " ok") true (Driver.ok r);
      checki (sched.Scheduler.name ^ " no drops") 0 r.post_term_drops)
    (all_schedulers ())

let test_chang_roberts_worst_case () =
  (* IDs decreasing clockwise from the max: candidate i travels i hops. *)
  let n = 8 in
  let ids = Array.init n (fun v -> n - v) in
  let r = run_cr ~ids ~sched:Scheduler.fifo in
  checkb "ok" true (Driver.ok r);
  checki "worst case count" (Chang_roberts.worst_case_messages ~n) r.messages

let test_chang_roberts_best_case () =
  (* IDs increasing clockwise: every candidate dies after one hop except
     the max, which travels n; plus n announcements. *)
  let n = 8 in
  let ids = Array.init n (fun v -> v + 1) in
  let r = run_cr ~ids ~sched:Scheduler.fifo in
  checkb "ok" true (Driver.ok r);
  checki "best case count" ((n - 1) + n + n) r.messages

let test_lelann_exact_count () =
  let ids = [| 4; 2; 9; 6; 1; 8 |] in
  List.iter
    (fun sched ->
      let r = run_ll ~ids ~sched in
      checkb (sched.Scheduler.name ^ " ok") true (Driver.ok r);
      checki (sched.Scheduler.name ^ " n^2") (Lelann.messages ~n:6) r.messages;
      checki (sched.Scheduler.name ^ " no drops") 0 r.post_term_drops)
    (all_schedulers ())

let test_hs_basic () =
  let ids = [| 3; 9; 1; 7; 5; 2; 8; 4 |] in
  List.iter
    (fun sched ->
      let r = run_hs ~ids ~sched in
      checkb (sched.Scheduler.name ^ " leader") true
        (r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated);
      checkb (sched.Scheduler.name ^ " within bound") true
        (r.messages <= Hirschberg_sinclair.message_bound ~n:8))
    (all_schedulers ())

let test_peterson_basic () =
  let ids = [| 3; 9; 1; 7; 5; 2; 8; 4 |] in
  List.iter
    (fun sched ->
      let r = run_peterson ~ids ~sched in
      checkb (sched.Scheduler.name ^ " leader") true
        (r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated))
    (all_schedulers ())

let test_single_node_all () =
  let ids = [| 5 |] in
  checkb "cr" true (Driver.ok (run_cr ~ids ~sched:Scheduler.fifo));
  checkb "ll" true (Driver.ok (run_ll ~ids ~sched:Scheduler.fifo));
  let hs = run_hs ~ids ~sched:Scheduler.fifo in
  checkb "hs" true (hs.leader = Some 0 && hs.all_terminated);
  let p = run_peterson ~ids ~sched:Scheduler.fifo in
  checkb "peterson" true (p.leader = Some 0 && p.all_terminated)

let test_itai_rodeh_terminates_uniquely () =
  for seed = 1 to 25 do
    let r = run_ir ~seed ~n:9 ~sched:(Scheduler.random (Rng.create ~seed)) () in
    checkb
      (Printf.sprintf "seed %d unique leader" seed)
      true
      (r.leader <> None && r.roles_ok && r.all_terminated && not r.exhausted)
  done

let test_itai_rodeh_single_node () =
  let r = run_ir ~n:1 ~sched:Scheduler.fifo () in
  checkb "n=1" true (r.leader = Some 0 && r.all_terminated)

let test_peterson_phase_bound () =
  (* Active candidates halve per phase, so any node's phase counter is
     at most ceil(log2 n) + 1. *)
  let ceil_log2 n =
    let rec go acc v = if 1 lsl acc >= v then acc else go (acc + 1) v in
    go 0 n
  in
  List.iter
    (fun n ->
      let ids = Ids.dense (Rng.create ~seed:n) ~n in
      let net =
        Network.create_with ~carry:Payloads (oriented n) (fun v ->
            Peterson.program ~id:ids.(v))
      in
      let result = Network.run net (Scheduler.random (Rng.create ~seed:n)) in
      checkb "terminated" true result.all_terminated;
      for v = 0 to n - 1 do
        checkb
          (Printf.sprintf "n=%d node %d phase bound" n v)
          true
          (Network.inspect_counter net v "phases" <= ceil_log2 n + 1)
      done)
    [ 2; 4; 8; 16; 32; 64 ]

let test_itai_rodeh_range_sweep () =
  (* Larger value ranges make first-round ties rarer; all must elect. *)
  List.iter
    (fun range ->
      let r =
        Driver.run ~seed:range ~name:"ir"
          (fun _ -> Itai_rodeh.program ~n:8 ~range)
          ~topo:(oriented 8)
          ~sched:(Scheduler.random (Rng.create ~seed:(range * 3)))
      in
      checkb
        (Printf.sprintf "range %d" range)
        true
        (r.leader <> None && r.roles_ok && r.all_terminated && not r.exhausted))
    [ 2; 3; 8; 64; 1024 ]

let test_lelann_message_independent_of_placement () =
  (* LeLann's n^2 is placement-independent; compare two rotations. *)
  let base = [| 5; 3; 9; 1; 7 |] in
  let rotated = Array.init 5 (fun i -> base.((i + 2) mod 5)) in
  let m ids = (run_ll ~ids ~sched:Scheduler.fifo).messages in
  checki "same" (m base) (m rotated)

let test_chang_roberts_sensitive_to_placement () =
  (* Chang-Roberts is placement-sensitive: increasing vs decreasing
     clockwise differ (that is the whole O(n log n)-average story). *)
  let n = 16 in
  let inc = Array.init n (fun v -> v + 1) in
  let dec = Array.init n (fun v -> n - v) in
  let m ids = (run_cr ~ids ~sched:Scheduler.fifo).messages in
  checkb "worst > best" true (m dec > m inc)

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_instance =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 20) (int_range 0 10_000))

let with_random_instance (n, seed) f =
  let rng = Rng.create ~seed in
  let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 50) in
  let sched = Scheduler.random (Rng.split rng) in
  f ~ids ~sched

let prop_cr =
  QCheck.Test.make ~name:"chang-roberts random instances" ~count:100
    arb_instance (fun inst ->
      with_random_instance inst (fun ~ids ~sched ->
          let r = run_cr ~ids ~sched in
          Driver.ok r
          && r.messages <= Chang_roberts.worst_case_messages ~n:(Array.length ids)))

let prop_lelann =
  QCheck.Test.make ~name:"lelann always n^2" ~count:100 arb_instance
    (fun inst ->
      with_random_instance inst (fun ~ids ~sched ->
          let r = run_ll ~ids ~sched in
          Driver.ok r && r.messages = Array.length ids * Array.length ids))

let prop_hs =
  QCheck.Test.make ~name:"hirschberg-sinclair random instances" ~count:100
    arb_instance (fun inst ->
      with_random_instance inst (fun ~ids ~sched ->
          let r = run_hs ~ids ~sched in
          r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated
          && (not r.exhausted)
          && r.messages <= Hirschberg_sinclair.message_bound ~n:(Array.length ids)))

let prop_peterson =
  QCheck.Test.make ~name:"peterson random instances" ~count:100 arb_instance
    (fun inst ->
      with_random_instance inst (fun ~ids ~sched ->
          let r = run_peterson ~ids ~sched in
          r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated
          && not r.exhausted))

let prop_itai_rodeh =
  QCheck.Test.make ~name:"itai-rodeh random instances" ~count:60
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
        Gen.(pair (int_range 1 12) (int_range 0 10_000)))
    (fun (n, seed) ->
      let r =
        run_ir ~seed ~n ~sched:(Scheduler.random (Rng.create ~seed:(seed + 1))) ()
      in
      r.leader <> None && r.roles_ok && r.all_terminated && not r.exhausted)

let () =
  Alcotest.run "colring-classic"
    [
      ( "chang-roberts",
        [
          Alcotest.test_case "basic" `Quick test_chang_roberts_basic;
          Alcotest.test_case "worst case" `Quick test_chang_roberts_worst_case;
          Alcotest.test_case "best case" `Quick test_chang_roberts_best_case;
        ] );
      ("lelann", [ Alcotest.test_case "exact count" `Quick test_lelann_exact_count ]);
      ("hirschberg-sinclair", [ Alcotest.test_case "basic" `Quick test_hs_basic ]);
      ("peterson", [ Alcotest.test_case "basic" `Quick test_peterson_basic ]);
      ( "degenerate",
        [ Alcotest.test_case "single node" `Quick test_single_node_all ] );
      ( "itai-rodeh",
        [
          Alcotest.test_case "unique leader" `Quick
            test_itai_rodeh_terminates_uniquely;
          Alcotest.test_case "single node" `Quick test_itai_rodeh_single_node;
          Alcotest.test_case "range sweep" `Quick test_itai_rodeh_range_sweep;
        ] );
      ( "structure",
        [
          Alcotest.test_case "peterson phase bound" `Quick
            test_peterson_phase_bound;
          Alcotest.test_case "lelann placement-free" `Quick
            test_lelann_message_independent_of_placement;
          Alcotest.test_case "chang-roberts placement-sensitive" `Quick
            test_chang_roberts_sensitive_to_placement;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_cr; prop_lelann; prop_hs; prop_peterson; prop_itai_rodeh ] );
    ]
