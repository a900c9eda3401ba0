(* Tests for the analytical fast simulator: differential equality with
   the event engine on every overlapping scale, plus exactness at
   scales only the fast simulator can reach. *)

open Colring_core
open Colring_engine
open Colring_fastsim
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Differential: fast vs engine *)

let prop_algo1_differential =
  QCheck.Test.make ~name:"fast algo1 = engine algo1" ~count:150
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 24) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 60) in
      let fast = Fast.algo1 ~ids in
      let _, net =
        Election.run Election.Algo1 ~topo:(Topology.oriented n) ~ids
          ~sched:(Scheduler.random (Rng.split rng))
      in
      fast.Fast.total = Metrics.sends (Network.metrics net)
      && Array.for_all
           (fun v ->
             fast.Fast.receives.(v)
             = Network.inspect_counter net v "rho_cw")
           (Array.init n Fun.id))

let prop_algo1_differential_duplicates =
  QCheck.Test.make ~name:"fast algo1 = engine (duplicate ids)" ~count:100
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 2 16) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let id_max = 2 + Rng.int rng 30 in
      let ids = Ids.duplicated rng ~n ~id_max ~dup_max:(1 + Rng.int rng n) in
      let fast = Fast.algo1 ~ids in
      let _, net =
        Election.run Election.Algo1 ~topo:(Topology.oriented n) ~ids
          ~sched:(Scheduler.random (Rng.split rng))
      in
      fast.Fast.total = Metrics.sends (Network.metrics net))

let prop_algo2_differential =
  QCheck.Test.make ~name:"fast algo2 = engine algo2" ~count:120
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 20) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 50) in
      let fast = Fast.algo2 ~ids in
      let r =
        Election.run_report Election.Algo2 ~topo:(Topology.oriented n) ~ids
          ~sched:(Scheduler.random (Rng.split rng))
      in
      fast.Fast.total = r.sends
      && fast.Fast.cw = r.sends_cw
      && fast.Fast.ccw = r.sends_ccw
      && Some fast.Fast.leader = r.leader)

let prop_algo2_termination_order =
  QCheck.Test.make ~name:"fast algo2 termination order = engine" ~count:60
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 14) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 20) in
      let fast = Fast.algo2 ~ids in
      let _, net =
        Election.run Election.Algo2 ~topo:(Topology.oriented n) ~ids
          ~sched:(Scheduler.random (Rng.split rng))
      in
      fast.Fast.termination_order = Network.termination_order net)

let prop_algo3_differential =
  QCheck.Test.make ~name:"fast algo3 = engine algo3" ~count:100
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 16) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 30) in
      let flips = Array.init n (fun _ -> Rng.bool rng) in
      let topo = Topology.non_oriented ~flips in
      List.for_all
        (fun scheme ->
          let fast = Fast.algo3 ~scheme ~ids ~flips in
          let r, net =
            Election.run (Election.Algo3 scheme) ~topo ~ids
              ~sched:(Scheduler.random (Rng.split rng))
          in
          fast.Fast.total = r.sends
          && Some fast.Fast.leader = r.leader
          && fast.Fast.leader_unique
          && fast.Fast.orientation_consistent
             = (r.orientation_ok = Some true)
          && Array.for_all
               (fun v ->
                 match (Network.output net v).Output.cw_port with
                 | Some p -> Port.equal p fast.Fast.cw_ports.(v)
                 | None -> false)
               (Array.init n Fun.id))
        [ Algo3.Doubled; Algo3.Improved ])

(* ------------------------------------------------------------------ *)
(* Exactness at large scale *)

let test_large_scale_formulas () =
  List.iter
    (fun (n, id_max) ->
      let ids = Ids.distinct (Rng.create ~seed:n) ~n ~id_max in
      let a1 = Fast.algo1 ~ids in
      checki
        (Printf.sprintf "algo1 n=%d idmax=%d" n id_max)
        (Formulas.algo1_total ~n ~id_max)
        a1.Fast.total;
      checkb "all receives = idmax" true
        (Array.for_all (fun r -> r = id_max) a1.Fast.receives);
      checkb "lemma 7 order" true a1.Fast.last_absorber_is_max;
      let a2 = Fast.algo2 ~ids in
      checki "algo2 total" (Formulas.algo2_total ~n ~id_max) a2.Fast.total;
      checki "algo2 cw" (n * id_max) a2.Fast.cw;
      checki "algo2 ccw" (n * (id_max + 1)) a2.Fast.ccw)
    [ (4, 1_000_000); (64, 1_000_000); (512, 100_000); (3, 1_000_000_000) ]

let test_large_scale_algo3 () =
  let n = 128 and id_max = 500_000 in
  let rng = Rng.create ~seed:7 in
  let ids = Ids.distinct rng ~n ~id_max in
  let flips = Array.init n (fun _ -> Rng.bool rng) in
  List.iter
    (fun (scheme, expected) ->
      let r = Fast.algo3 ~scheme ~ids ~flips in
      checki "total" expected r.Fast.total;
      checkb "leader" true (r.Fast.leader = Ids.argmax ids);
      checkb "oriented" true r.Fast.orientation_consistent)
    [
      (Algo3.Doubled, Formulas.algo3_doubled_total ~n ~id_max);
      (Algo3.Improved, Formulas.algo3_improved_total ~n ~id_max);
    ]

let test_driver_single_node () =
  let r = Driver.run ~ids:[| 42 |] in
  checki "deliveries" 42 r.Driver.deliveries;
  checki "receives" 42 r.Driver.receives.(0);
  Alcotest.(check (list int)) "order" [ 0 ] r.Driver.absorb_order

let test_driver_rejects_bad_ids () =
  Alcotest.check_raises "zero id"
    (Invalid_argument "Driver.run: ids must be positive") (fun () ->
      ignore (Driver.run ~ids:[| 1; 0 |]))

let () =
  Alcotest.run "colring-fastsim"
    [
      ( "differential",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_algo1_differential;
            prop_algo1_differential_duplicates;
            prop_algo2_differential;
            prop_algo2_termination_order;
            prop_algo3_differential;
          ] );
      ( "scale",
        [
          Alcotest.test_case "formulas at 10^6..10^9" `Quick
            test_large_scale_formulas;
          Alcotest.test_case "algo3 at scale" `Quick test_large_scale_algo3;
        ] );
      ( "driver",
        [
          Alcotest.test_case "single node" `Quick test_driver_single_node;
          Alcotest.test_case "input validation" `Quick
            test_driver_rejects_bad_ids;
        ] );
    ]
