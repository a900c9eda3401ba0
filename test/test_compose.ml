(* Tests for the Corollary 5 composition layer: codec round-trips, the
   chain combinator, tape establishment, collectives, synchronous
   simulation, and full quiescent termination of composed runs. *)

open Colring_engine
open Colring_compose
module Rng = Colring_stats.Rng
module Ids = Colring_core.Ids

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_gamma_known_values () =
  Alcotest.(check (list bool)) "gamma 1" [ true ] (Codec.gamma 1);
  Alcotest.(check (list bool))
    "gamma 2" [ false; true; false ] (Codec.gamma 2);
  Alcotest.(check (list bool))
    "gamma 5"
    [ false; false; true; false; true ]
    (Codec.gamma 5)

let test_gamma_starts_with_zero_from_2 () =
  for n = 2 to 200 do
    match Codec.gamma n with
    | false :: _ -> ()
    | _ -> Alcotest.failf "gamma %d does not start with 0" n
  done

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"gamma round-trip" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun v ->
      let v', rest = Codec.decode_list (Codec.encode_value v) in
      v' = v + 1 && rest = [])

let prop_codec_concat =
  QCheck.Test.make ~name:"gamma self-delimiting over concatenation" ~count:200
    QCheck.(small_list (int_range 0 10_000))
    (fun vs ->
      let tape = List.concat_map Codec.encode_value vs in
      let rec decode_all acc rest =
        match rest with
        | [] -> List.rev acc
        | _ ->
            let v, rest = Codec.decode_list rest in
            decode_all ((v - 1) :: acc) rest
      in
      decode_all [] tape = vs)

let test_gamma_length () =
  List.iter
    (fun n ->
      checki
        (Printf.sprintf "length gamma %d" n)
        (List.length (Codec.gamma n))
        (Codec.gamma_length n))
    [ 1; 2; 3; 7; 8; 100; 1023; 1024 ]

(* ------------------------------------------------------------------ *)
(* Chain *)

let test_chain_switches_on_terminate () =
  (* First phase: terminate immediately at start.  Second phase: send a
     pulse and terminate for real. *)
  let first =
    {
      Network.state = Opaque (fun () -> [ ("a", 1) ]);
      Network.start =
        (fun (api : _ Network.api) ->
          api.set_output (Output.with_value 1 Output.empty);
          api.terminate ());
      wake = (fun _ -> ());
    }
  in
  let second (out : Output.t) =
    checki "first output visible" (Some 1 |> Option.get)
      (Option.get out.value);
    {
      Network.state = Opaque (fun () -> [ ("b", 2) ]);
      Network.start =
        (fun (api : _ Network.api) ->
          api.send Port.P1 ();
          api.set_output (Output.with_value 2 Output.empty));
      wake =
        (fun api ->
          match api.recv Port.P0 with
          | Some () -> api.terminate ()
          | None -> ());
    }
  in
  let net =
    Network.create (Topology.oriented 1) (fun _ -> Chain.chain first second)
  in
  let result = Network.run net Scheduler.fifo in
  checkb "terminated for real" true result.all_terminated;
  checki "second ran" 2 (Option.get (Network.output net 0).Output.value);
  checkb "inspect merged" true
    (List.mem_assoc "a.a" (Network.inspect net 0)
    && List.mem_assoc "b.b" (Network.inspect net 0))

(* ------------------------------------------------------------------ *)
(* Tape establishment and collectives, via full composed runs *)

let sched_pool seed =
  [
    Scheduler.fifo;
    Scheduler.global_fifo;
    Scheduler.lifo;
    Scheduler.random (Rng.create ~seed);
    Scheduler.bias_direction ~cw:false;
  ]

let test_ring_discovery () =
  let ids = [| 4; 9; 2; 7; 5 |] in
  (* Leader (id 9) sits at position 1; distances are CW from it. *)
  List.iter
    (fun sched ->
      let r = Corollary5.run ~app:Corollary5.app_ring_discovery ~ids sched in
      checkb (sched.Scheduler.name ^ " quiescent") true r.quiescent;
      checkb (sched.Scheduler.name ^ " terminated") true r.all_terminated;
      checki (sched.Scheduler.name ^ " no leaks") 0 r.post_term_deliveries;
      Array.iteri
        (fun v (o : Output.t) ->
          checki (Printf.sprintf "%s n at node %d" sched.Scheduler.name v) 5
            (Option.get o.value);
          let expected_dist = (v - 1 + 5) mod 5 in
          Alcotest.(check (list int))
            (Printf.sprintf "%s dist at %d" sched.Scheduler.name v)
            [ expected_dist ] o.values)
        r.outputs)
    (sched_pool 1)

let test_ring_discovery_sizes () =
  (* Degenerate and small sizes, all schedulers. *)
  List.iter
    (fun n ->
      let ids = Array.init n (fun v -> v + 1) in
      List.iter
        (fun sched ->
          let r =
            Corollary5.run ~app:Corollary5.app_ring_discovery ~ids sched
          in
          checkb
            (Printf.sprintf "n=%d %s ok" n sched.Scheduler.name)
            true
            (r.quiescent && r.all_terminated && r.post_term_deliveries = 0);
          Array.iter
            (fun (o : Output.t) -> checki "n" n (Option.get o.value))
            r.outputs)
        (sched_pool n))
    [ 1; 2; 3; 4; 8 ]

let test_gather_ids_correct_vector () =
  let ids = [| 4; 9; 2; 7; 5 |] in
  (* app_gather_ids needs the node's own id; Corollary5.run applies the
     same app everywhere, so use the lower-level program builder. *)
  let net =
    Network.create (Topology.oriented 5) (fun v ->
        Corollary5.program ~id:ids.(v)
          ~app:(Corollary5.app_gather_ids ~my_id:ids.(v)))
  in
  let result = Network.run net Scheduler.fifo in
  checkb "quiescent" true result.quiescent;
  checkb "terminated" true result.all_terminated;
  (* Leader is node 1 (id 9); CW order from it: 9,2,7,5,4. *)
  Array.iteri
    (fun v (o : Output.t) ->
      Alcotest.(check (list int))
        (Printf.sprintf "vector at %d" v)
        [ 9; 2; 7; 5; 4 ] o.values;
      checki "max" 9 (Option.get o.value);
      checkb "role" true
        (Output.equal_role o.role
           (if ids.(v) = 9 then Output.Leader else Output.Non_leader)))
    (Network.outputs net)

let test_broadcast_payload () =
  let ids = [| 3; 8; 1 |] in
  let payload = [ 42; 0; 7; 1000; 5 ] in
  List.iter
    (fun sched ->
      let r = Corollary5.run ~app:(Corollary5.app_broadcast ~payload) ~ids sched in
      checkb (sched.Scheduler.name ^ " quiescent") true
        (r.quiescent && r.all_terminated);
      Array.iter
        (fun (o : Output.t) ->
          Alcotest.(check (list int)) "payload" payload o.values)
        r.outputs)
    (sched_pool 2)

let test_compose_pulse_accounting () =
  let ids = [| 3; 8; 1 |] in
  let r =
    Corollary5.run ~app:Corollary5.app_ring_discovery ~ids Scheduler.fifo
  in
  checki "election part is the theorem 1 count" (3 * ((2 * 8) + 1))
    r.election_pulses;
  checkb "compose part positive" true (r.compose_pulses > 0);
  checki "total splits" r.total_pulses
    (r.election_pulses + r.compose_pulses)

(* ------------------------------------------------------------------ *)
(* Synchronous machines over the tape *)

let run_per_node_app ~ids ~mk_app sched =
  let n = Array.length ids in
  let net =
    Network.create (Topology.oriented n) (fun v ->
        Corollary5.program ~id:ids.(v) ~app:(mk_app v))
  in
  let result = Network.run ~max_deliveries:20_000_000 net sched in
  (result, Network.outputs net)

let test_sync_max () =
  let ids = [| 4; 9; 2; 7; 5 |] in
  let values = [| 10; 3; 99; 5; 42 |] in
  let result, outputs =
    run_per_node_app ~ids
      ~mk_app:(fun v -> Corollary5.app_sync_max ~my_value:values.(v))
      Scheduler.fifo
  in
  checkb "quiescent+terminated" true (result.quiescent && result.all_terminated);
  Array.iteri
    (fun v (o : Output.t) ->
      checki (Printf.sprintf "max at %d" v) 99 (Option.get o.value))
    outputs

let test_sync_sum () =
  let ids = [| 4; 9; 2 |] in
  let values = [| 10; 3; 29 |] in
  List.iter
    (fun sched ->
      let result, outputs =
        run_per_node_app ~ids
          ~mk_app:(fun v -> Corollary5.app_sync_sum ~my_value:values.(v))
          sched
      in
      checkb (sched.Scheduler.name ^ " done") true
        (result.quiescent && result.all_terminated);
      Array.iter
        (fun (o : Output.t) -> checki "sum" 42 (Option.get o.value))
        outputs)
    (sched_pool 3)

let test_sync_chang_roberts_over_defective_ring () =
  (* The paper's Corollary 5 pitch: run a classic content-carrying
     election on the fully-defective ring. *)
  let ids = [| 4; 9; 2; 7 |] in
  let result, outputs =
    run_per_node_app ~ids
      ~mk_app:(fun v -> Corollary5.app_sync_chang_roberts ~my_id:ids.(v))
      Scheduler.fifo
  in
  checkb "quiescent+terminated" true (result.quiescent && result.all_terminated);
  Array.iteri
    (fun v (o : Output.t) ->
      checki "winner" 9 (Option.get o.value);
      checkb "role" true
        (Output.equal_role o.role
           (if ids.(v) = 9 then Output.Leader else Output.Non_leader)))
    outputs

let test_broadcast_text () =
  let ids = [| 3; 8; 1; 5 |] in
  let text = "defective rings still talk" in
  let r =
    Corollary5.run ~app:(Corollary5.app_broadcast_text ~text) ~ids
      (Scheduler.random (Rng.create ~seed:4))
  in
  checkb "done" true (r.quiescent && r.all_terminated);
  Array.iter
    (fun (o : Output.t) ->
      let received =
        String.concat ""
          (List.map (fun c -> String.make 1 (Char.chr c)) o.values)
      in
      Alcotest.(check string) "text" text received)
    r.outputs

let test_assign_ids () =
  let ids = [| 30; 80; 10; 50; 20 |] in
  List.iter
    (fun sched ->
      let r = Corollary5.run ~app:Corollary5.app_assign_ids ~ids sched in
      checkb (sched.Scheduler.name ^ " done") true
        (r.quiescent && r.all_terminated);
      (* New ids are 1..n, distinct, with the old leader holding 1. *)
      let news =
        Array.to_list (Array.map (fun (o : Output.t) -> Option.get o.value) r.outputs)
      in
      Alcotest.(check (list int))
        (sched.Scheduler.name ^ " fresh ids sorted")
        [ 1; 2; 3; 4; 5 ]
        (List.sort compare news);
      checki (sched.Scheduler.name ^ " leader gets 1") 1
        (Option.get r.outputs.(1).Output.value);
      Array.iter
        (fun (o : Output.t) ->
          Alcotest.(check (list int))
            "gathered vector" [ 1; 2; 3; 4; 5 ] o.values)
        r.outputs)
    (sched_pool 9)

let test_string_roundtrip_empty_and_binary () =
  let texts = [ ""; "a"; String.init 16 Char.chr ] in
  List.iter
    (fun text ->
      let ids = [| 2; 5 |] in
      let r =
        Corollary5.run ~app:(Corollary5.app_broadcast_text ~text) ~ids
          Scheduler.fifo
      in
      let o = r.outputs.(0) in
      checki (Printf.sprintf "len %d" (String.length text))
        (String.length text) (List.length o.Output.values))
    texts

let test_cost_model_exact () =
  (* The Costs formulas must match measured pulse counts exactly. *)
  List.iter
    (fun n ->
      let ids = Ids.distinct (Rng.create ~seed:n) ~n ~id_max:(3 * n) in
      let id_max = Ids.id_max ids in
      let r =
        Corollary5.run ~app:Corollary5.app_ring_discovery ~ids Scheduler.fifo
      in
      checki
        (Printf.sprintf "discovery n=%d" n)
        (Costs.ring_discovery_total ~n ~id_max)
        r.total_pulses)
    [ 1; 2; 3; 5; 9 ];
  (* Gather: need ids in distance order from the leader. *)
  let ids = [| 4; 9; 2; 7; 5 |] in
  let net =
    Network.create (Topology.oriented 5) (fun v ->
        Corollary5.program ~id:ids.(v)
          ~app:(Corollary5.app_gather_ids ~my_id:ids.(v)))
  in
  let result = Network.run net Scheduler.lifo in
  let ids_by_distance = [| 9; 2; 7; 5; 4 |] in
  checki "gather total"
    (Costs.gather_ids_total ~ids_by_distance ~id_max:9)
    result.sends

let test_universal_simulation () =
  (* The full Corollary 5 statement: simulate an arbitrary asynchronous
     algorithm — here, a *nested reliable-network run* of the classic
     Hirschberg-Sinclair election with real message contents — on the
     fully-defective ring.  Node inputs are their original ids. *)
  let ids = [| 4; 9; 2; 7; 5 |] in
  let simulate ~inputs =
    let n = Array.length inputs in
    let net =
      Network.create_with ~carry:Payloads (Topology.oriented n) (fun v ->
          Colring_classic.Hirschberg_sinclair.program ~id:inputs.(v))
    in
    let result =
      Network.run net (Scheduler.random (Rng.create ~seed:99))
    in
    assert result.all_terminated;
    Network.outputs net
  in
  let result, outputs =
    run_per_node_app ~ids
      ~mk_app:(fun v ->
        Corollary5.app_universal ~my_input:ids.(v) ~simulate)
      Scheduler.fifo
  in
  checkb "quiescent+terminated" true (result.quiescent && result.all_terminated);
  (* HS elects the max id; the node at ring position 1 holds it.  The
     gathered inputs are in clockwise order from the leader of the
     outer election (also position 1), so distance 0 wins. *)
  Array.iteri
    (fun v (o : Output.t) ->
      checkb
        (Printf.sprintf "role at %d" v)
        true
        (Output.equal_role o.role
           (if ids.(v) = 9 then Output.Leader else Output.Non_leader)))
    outputs

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_discovery_random =
  QCheck.Test.make ~name:"ring discovery on random instances" ~count:40
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 12) (int_range 0 1000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 20) in
      let r =
        Corollary5.run ~app:Corollary5.app_ring_discovery ~ids
          (Scheduler.random (Rng.split rng))
      in
      r.quiescent && r.all_terminated
      && r.post_term_deliveries = 0
      && Array.for_all (fun (o : Output.t) -> o.value = Some n) r.outputs)

let prop_all_gather_roundtrip =
  QCheck.Test.make ~name:"all_gather round-trips arbitrary values" ~count:25
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 8) (int_range 0 1000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 10) in
      let values = Array.init n (fun _ -> Rng.int rng 100_000) in
      let net =
        Network.create (Topology.oriented n) (fun v ->
            Corollary5.program ~id:ids.(v) ~app:(fun s ->
                let gathered = Tape.all_gather s ~value:values.(v) in
                (Tape.api s).set_output
                  (Output.with_values (Array.to_list gathered) Output.empty);
                (Tape.api s).terminate ()))
      in
      let result = Network.run net (Scheduler.random (Rng.split rng)) in
      (* Gathered vector is in distance order from the leader. *)
      let leader = Ids.argmax ids in
      let expected =
        List.init n (fun d -> values.((leader + d) mod n))
      in
      result.quiescent && result.all_terminated
      && Array.for_all
           (fun (o : Output.t) -> o.values = expected)
           (Network.outputs net))

let prop_sum_random =
  QCheck.Test.make ~name:"ring sum on random instances" ~count:25
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 1 8) (int_range 0 1000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 10) in
      let values = Array.init n (fun _ -> Rng.int rng 50) in
      let expected = Array.fold_left ( + ) 0 values in
      let result, outputs =
        run_per_node_app ~ids
          ~mk_app:(fun v -> Corollary5.app_sync_sum ~my_value:values.(v))
          (Scheduler.random (Rng.split rng))
      in
      result.quiescent && result.all_terminated
      && Array.for_all (fun (o : Output.t) -> o.value = Some expected) outputs)

let () =
  Alcotest.run "colring-compose"
    [
      ( "codec",
        [
          Alcotest.test_case "known values" `Quick test_gamma_known_values;
          Alcotest.test_case "leading zero" `Quick
            test_gamma_starts_with_zero_from_2;
          Alcotest.test_case "lengths" `Quick test_gamma_length;
        ]
        @ List.map (fun t -> QCheck_alcotest.to_alcotest t)
            [ prop_codec_roundtrip; prop_codec_concat ] );
      ("chain", [ Alcotest.test_case "switch" `Quick test_chain_switches_on_terminate ]);
      ( "tape",
        [
          Alcotest.test_case "ring discovery" `Quick test_ring_discovery;
          Alcotest.test_case "sizes" `Quick test_ring_discovery_sizes;
          Alcotest.test_case "gather ids" `Quick test_gather_ids_correct_vector;
          Alcotest.test_case "broadcast" `Quick test_broadcast_payload;
          Alcotest.test_case "pulse accounting" `Quick
            test_compose_pulse_accounting;
          Alcotest.test_case "broadcast text" `Quick test_broadcast_text;
          Alcotest.test_case "assign ids" `Quick test_assign_ids;
          Alcotest.test_case "string edge cases" `Quick
            test_string_roundtrip_empty_and_binary;
        ] );
      ( "sync",
        [
          Alcotest.test_case "max" `Quick test_sync_max;
          Alcotest.test_case "sum" `Quick test_sync_sum;
          Alcotest.test_case "chang-roberts over defective ring" `Quick
            test_sync_chang_roberts_over_defective_ring;
          Alcotest.test_case "universal simulation (nested HS)" `Quick
            test_universal_simulation;
          Alcotest.test_case "cost model exact" `Quick test_cost_model_exact;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_discovery_random; prop_all_gather_roundtrip; prop_sum_random ] );
    ]
