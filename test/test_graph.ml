(* Tests for the general-graph substrate: topology builders, bridge
   finding / 2-edge-connectivity, cross-validation of the ring
   algorithms on the independent graph simulator, and regression
   observations for the exploratory rotor circulation.  The engine
   oracle (fixed-seed journals, check rows and batch shards) is a set
   of golden files under test/golden/. *)

open Colring_engine
open Colring_core
open Colring_graph
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_ring_graph_shape () =
  let g = Gtopology.ring 5 in
  checki "n" 5 (Gtopology.n g);
  checki "links" 10 (Gtopology.num_links g);
  for v = 0 to 4 do
    checki "degree" 2 (Gtopology.degree g v)
  done;
  (* Wiring is symmetric. *)
  for id = 0 to Gtopology.num_links g - 1 do
    let v, p = Gtopology.link_src g id in
    let w, q = Gtopology.peer g ~node:v ~port:p in
    let v', p' = Gtopology.peer g ~node:w ~port:q in
    checkb "symmetric" true (v' = v && p' = p)
  done

let test_theta_shape () =
  let g = Gtopology.theta 1 2 3 in
  checki "n" 8 (Gtopology.n g);
  checki "hub degree" 3 (Gtopology.degree g 0);
  checki "hub degree" 3 (Gtopology.degree g 1);
  for v = 2 to 7 do
    checki "inner degree" 2 (Gtopology.degree g v)
  done;
  checkb "2ec" true (Gtopology.is_two_edge_connected g)

let test_complete_shape () =
  let g = Gtopology.complete 5 in
  checki "links" (5 * 4) (Gtopology.num_links g);
  checkb "2ec" true (Gtopology.is_two_edge_connected g)

let test_bridges () =
  (* A path: every edge is a bridge. *)
  let path = Gtopology.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  checki "path bridges" 3 (List.length (Gtopology.bridges path));
  checkb "path not 2ec" false (Gtopology.is_two_edge_connected path);
  (* A cycle: none. *)
  checki "cycle bridges" 0 (List.length (Gtopology.bridges (Gtopology.ring 6)));
  (* Barbell: two triangles joined by one edge — exactly one bridge. *)
  let barbell =
    Gtopology.of_edges ~n:6
      [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ]
  in
  Alcotest.(check (list (pair int int)))
    "barbell bridge" [ (2, 3) ] (Gtopology.bridges barbell);
  (* Two parallel edges are never a bridge. *)
  let digon = Gtopology.of_edges ~n:2 [ (0, 1); (0, 1) ] in
  checki "digon bridges" 0 (List.length (Gtopology.bridges digon));
  checkb "digon 2ec" true (Gtopology.is_two_edge_connected digon)

let test_disconnected () =
  let g = Gtopology.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  checkb "not connected" false (Gtopology.is_connected g);
  checkb "not 2ec" false (Gtopology.is_two_edge_connected g)

let test_of_edges_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Gtopology.of_edges: self-loop") (fun () ->
      ignore (Gtopology.of_edges ~n:2 [ (0, 0) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Gtopology.of_edges: endpoint out of range") (fun () ->
      ignore (Gtopology.of_edges ~n:2 [ (0, 5) ]))

let prop_cycle_with_chords_2ec =
  QCheck.Test.make ~name:"cycle+chords always 2-edge-connected" ~count:100
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 4 24)) small_nat)
    (fun (n, seed) ->
      let g =
        Gtopology.cycle_with_chords (Rng.create ~seed) ~n ~chords:(seed mod 4)
      in
      Gtopology.is_two_edge_connected g)

(* ------------------------------------------------------------------ *)
(* Ear decomposition and the closed spanning walk *)

(* Structural validity of a walk: non-empty, consecutive links chain
   (dst of one = src of the next, cyclically), no directed link
   repeats, and every covered node appears as a source. *)
let check_walk g d =
  let w = Ears.walk d in
  let len = Array.length w in
  checkb "walk nonempty" true (len > 0);
  for i = 0 to len - 1 do
    let dst = fst (Gtopology.link_dst g w.(i)) in
    let src_next = fst (Gtopology.link_src g w.((i + 1) mod len)) in
    checki (Printf.sprintf "chained at %d" i) dst src_next
  done;
  let sorted = Array.copy w in
  Array.sort compare sorted;
  for i = 1 to len - 1 do
    checkb "no directed link repeats" true (sorted.(i) <> sorted.(i - 1))
  done;
  let seen = Array.make (Gtopology.n g) false in
  Array.iter (fun l -> seen.(fst (Gtopology.link_src g l)) <- true) w;
  for v = 0 to Gtopology.n g - 1 do
    checkb
      (Printf.sprintf "coverage agrees at %d" v)
      (Ears.covered d v) seen.(v)
  done

let test_ears_ring () =
  let g = Gtopology.ring 5 in
  let d = Ears.decompose g in
  check_walk g d;
  checki "ring walk = n" 5 (Ears.walk_length d);
  checki "no ears" 0 (List.length (Ears.ears d));
  checkb "all covered" true (Ears.all_covered d)

let test_ears_theta () =
  let g = Gtopology.theta 0 1 1 in
  let d = Ears.decompose g in
  check_walk g d;
  (* Base 3-cycle plus one open ear with one inner node, walked out
     and back: 3 + 2 links.  A third chain is a chord (the direct hub
     edge), contributing nothing. *)
  checki "walk length" 5 (Ears.walk_length d);
  checkb "all covered" true (Ears.all_covered d)

let test_ears_bowtie () =
  let g = Gtopology.bowtie () in
  let d = Ears.decompose g in
  check_walk g d;
  checki "walk length" 6 (Ears.walk_length d);
  (match Ears.ears d with
  | [ e ] ->
      checkb "closed ear" true (e.Ears.anchor = e.Ears.close);
      checki "two inner nodes" 2 (List.length e.Ears.inner)
  | l -> Alcotest.failf "expected 1 ear, got %d" (List.length l));
  checkb "all covered" true (Ears.all_covered d)

let test_ears_k4 () =
  let g = Gtopology.complete 4 in
  let d = Ears.decompose g in
  check_walk g d;
  checkb "all covered" true (Ears.all_covered d);
  (* Base triangle + one open ear out-and-back for the 4th node; the
     remaining chords contribute nothing. *)
  checki "walk length" 5 (Ears.walk_length d)

let test_ears_bridge_ablation () =
  (* Barbell: root triangle {0,1,2}, bridge (2,3), far triangle
     {3,4,5}.  The decomposition never crosses the bridge, so only the
     root component is covered. *)
  let g =
    Gtopology.of_edges ~n:6
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ]
  in
  Alcotest.check_raises "2ec required by default"
    (Invalid_argument "Ears.decompose: graph is not 2-edge-connected")
    (fun () -> ignore (Ears.decompose g));
  let d = Ears.decompose ~require_2ec:false g in
  check_walk g d;
  checki "root component covered" 3 (Ears.num_covered d);
  for v = 0 to 2 do
    checkb "triangle covered" true (Ears.covered d v)
  done;
  for v = 3 to 5 do
    checkb "beyond the bridge uncovered" false (Ears.covered d v)
  done

let prop_ears_random2ec =
  QCheck.Test.make ~name:"random 2EC graphs decompose and walk" ~count:60
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 4 20) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g =
        Gtopology.cycle_with_chords (Rng.create ~seed) ~n ~chords:(seed mod 5)
      in
      let d = Ears.decompose g in
      check_walk g d;
      Ears.all_covered d)

(* ------------------------------------------------------------------ *)
(* The walk election *)

let gelection_ok_on g ~seed =
  let n = Gtopology.n g in
  let rng = Rng.create ~seed in
  let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 10) in
  let p = Gelection.plan g in
  let r =
    Gelection.run_report p ~ids ~sched:(Scheduler.random (Rng.split rng))
  in
  Gelection.ok r

let test_gelection_families () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          checkb (Printf.sprintf "%s seed %d" name seed) true
            (gelection_ok_on g ~seed))
        [ 1; 2; 3 ])
    [
      ("ring5", Gtopology.ring 5);
      ("digon", Gtopology.ring 2);
      ("theta011", Gtopology.theta 0 1 1);
      ("theta123", Gtopology.theta 1 2 3);
      ("bowtie", Gtopology.bowtie ());
      ("K4", Gtopology.complete 4);
      ("K5", Gtopology.complete 5);
    ]

let test_gelection_sends_exact () =
  (* The closed form: walk_len * id_max, independent of scheduling. *)
  let g = Gtopology.complete 4 in
  let p = Gelection.plan g in
  let ids = [| 3; 7; 2; 5 |] in
  List.iter
    (fun sched ->
      let r = Gelection.run_report p ~ids ~sched in
      checki "sends" (Gelection.walk_length p * 7) r.Gelection.sends;
      checkb "quiescent" true r.Gelection.quiescent;
      Alcotest.(check (option int)) "leader" (Some 1) r.Gelection.leader)
    [ Scheduler.fifo; Scheduler.lifo; Scheduler.global_fifo ]

let test_gelection_ablation () =
  let g =
    Gtopology.of_edges ~n:6
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ]
  in
  let p = Gelection.plan ~require_2ec:false g in
  let ids = [| 4; 2; 6; 9; 8; 7 |] in
  let r, net = Gelection.run p ~ids ~sched:Scheduler.fifo in
  checkb "walk part behaves" true r.Gelection.roles_ok;
  checkb "but the election fails" false (Gelection.ok r);
  checki "covered" 3 r.Gelection.covered;
  (* Node 3 carries the global max id yet never decides: content-
     oblivious election cannot reach across a bridge. *)
  checkb "global max undecided" true
    (Output.equal_role (Gnetwork.output net 3).Output.role Output.Undecided);
  Alcotest.(check (option int)) "covered max leads" (Some 2) r.Gelection.leader

let prop_gelection_random2ec =
  QCheck.Test.make ~name:"walk election ok on random 2EC graphs" ~count:60
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 4 16) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g =
        Gtopology.cycle_with_chords (Rng.create ~seed) ~n ~chords:(seed mod 4)
      in
      gelection_ok_on g ~seed)

let colring_exe () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/colring.exe"; "_build/default/bin/colring.exe" ]
  with
  | Some exe -> exe
  | None -> Alcotest.fail "colring.exe not built"

(* ------------------------------------------------------------------ *)
(* Rings as the degree-2 special case *)

(* The walk election on a ring IS Algorithm 1: the walk is the ring,
   so the send total matches the paper's Corollary 13 closed form and
   the max-id node leads. *)
let prop_ring_walk_is_algo1 =
  QCheck.Test.make ~name:"walk election on ring:N matches Algorithm 1"
    ~count:40
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 2 10) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(2 * n) in
      let plan = Gelection.plan (Gtopology.ring n) in
      let r =
        Gelection.run_report plan ~ids
          ~sched:(Scheduler.random (Rng.split rng))
      in
      Gelection.ok r
      && r.Gelection.sends = Formulas.algo1_total ~n ~id_max:(Ids.id_max ids)
      && r.Gelection.leader = Some (Ids.argmax ids))

(* ------------------------------------------------------------------ *)
(* Gnetwork semantics *)

let test_gnetwork_fifo_and_drop () =
  (* Node 0 sends 3 numbered messages along a path-like route on K3;
     node 1 collects them in order then terminates; a late message is
     dropped and counted. *)
  let g = Gtopology.of_edges ~n:2 [ (0, 1); (0, 1) ] in
  let got = ref [] in
  let net =
    Gnetwork.create_with ~carry:Payloads g (fun v ->
        if v = 0 then
          {
            Gnetwork.state = Opaque (fun () -> []);
            Gnetwork.start =
              (fun api ->
                api.send 0 1;
                api.send 0 2;
                api.send 1 3);
            wake = (fun _ -> ());
          }
        else
          {
            Gnetwork.state = Opaque (fun () -> []);
            Gnetwork.start = (fun _ -> ());
            wake =
              (fun api ->
                let continue = ref true in
                while !continue do
                  match api.recv 0 with
                  | Some m ->
                      got := m :: !got;
                      if m = 2 then api.terminate ()
                  | None -> (
                      match api.recv 1 with
                      | Some m -> got := m :: !got
                      | None -> continue := false)
                done);
          })
  in
  let r = Gnetwork.run net Scheduler.global_fifo in
  checkb "receiver terminated, sender not" false r.Gnetwork.all_terminated;
  Alcotest.(check (list int)) "fifo per channel" [ 2; 1 ] !got;
  checki "late message dropped" 1 (Gnetwork.post_termination_deliveries net)

(* As on rings: node [v]'s stream is split from the seed on first read
   and again, from the new seed, after a warm reset. *)
let test_gnetwork_per_node_rng () =
  let g = Gtopology.complete 4 in
  let seen = ref [] in
  let program v =
    {
      Gnetwork.state = Opaque (fun () -> []);
      Gnetwork.start =
        (fun (api : _ Gnetwork.api) ->
          let a = Rng.int (api.rng ()) 1_000_000 in
          seen := (v, a, Rng.int (api.rng ()) 1_000_000) :: !seen);
      wake = (fun _ -> ());
    }
  in
  let expected seed =
    List.init 4 (fun v ->
        let r = Rng.split_at (Rng.create ~seed) v in
        let a = Rng.int r 1_000_000 in
        (v, a, Rng.int r 1_000_000))
  in
  let draws () =
    let d = List.sort compare !seen in
    seen := [];
    d
  in
  let check = Alcotest.(check (list (triple int int int))) in
  let net = Gnetwork.create ~seed:5 g program in
  check "create" (expected 5) (draws ());
  Gnetwork.reset ~seed:6 net program;
  check "reset to another seed" (expected 6) (draws ());
  Gnetwork.reset ~seed:5 net program;
  check "reset back" (expected 5) (draws ());
  checki "distinct streams" 4
    (List.length
       (List.sort_uniq compare (List.map (fun (_, a, _) -> a) (expected 5))))

(* The engine counts inline and hands the user's sink the same events,
   so a [Sink.counters] passed as the user sink must end the run with
   exactly the engine's own counters — the oracle for the inline
   counting path. *)

module Topo = Colring_harness.Topo

type count_case = {
  topo : Topo.t;
  sched_ix : int; (* 0 = random, else a deterministic scheduler *)
  seed : int;
  spread : int;
}

let n_deterministic = List.length (Scheduler.all_deterministic ())

let gen_count_case =
  QCheck.Gen.(
    let* n = int_range 4 24 in
    let* seed = int_bound 100_000 in
    let* topo =
      oneofl
        [ Topo.Theta n; Topo.K4; Topo.Bowtie; Topo.Random2ec { n; seed } ]
    in
    let* sched_ix = int_bound n_deterministic in
    let* spread = int_bound 32 in
    return { topo; sched_ix; seed; spread })

let print_count_case c =
  Printf.sprintf "%s sched=%d seed=%d spread=%d" (Topo.to_string c.topo)
    c.sched_ix c.seed c.spread

let first_mismatch ~what ~range a b =
  let rec go i =
    if i >= range then None
    else if a i <> b i then
      Some (Printf.sprintf "%s %d: %d against %d" what i (a i) (b i))
    else go (i + 1)
  in
  go 0

(* Per-node, per-link and per-port tallies recorded from the events a
   user sink sees (the engine keeps whole-run scalars only). *)
type tallies = {
  by_node : int array;
  on_link : int array;
  arrived : int array; (* deliveries + drops, by destination link id *)
  delivered : int array; (* by (node, port) slot = mailbox id *)
  consumed : int array;
  mutable misrouted : int; (* sends whose link is not the node's port *)
}

let recorder g =
  let n = Gtopology.n g and links = Gtopology.num_links g in
  let tl =
    {
      by_node = Array.make n 0;
      on_link = Array.make links 0;
      arrived = Array.make links 0;
      delivered = Array.make links 0;
      consumed = Array.make links 0;
      misrouted = 0;
    }
  in
  let slot node port = Gtopology.first_link g node + port in
  let bump a i = a.(i) <- a.(i) + 1 in
  let sink =
    {
      Sink.null with
      name = "tallies";
      on_send =
        (fun ~node ~port ~seq:_ ~link ~cw:_ ->
          bump tl.by_node node;
          bump tl.on_link link;
          if link <> slot node port then tl.misrouted <- tl.misrouted + 1);
      on_deliver =
        (fun ~node ~port ~seq:_ -> bump tl.delivered (slot node port));
      on_drop = (fun ~node ~port ~seq:_ -> bump tl.arrived (slot node port));
      on_consume = (fun ~node ~port -> bump tl.consumed (slot node port));
    }
  in
  (tl, sink)

let prop_counting_split =
  QCheck.Test.make ~name:"counters = user Sink.counters" ~count:120
    (QCheck.make ~print:print_count_case gen_count_case)
    (fun c ->
      let g = Topo.materialize ~default_n:8 c.topo in
      let n = Gtopology.n g in
      let links = Gtopology.num_links g in
      let ids =
        Ids.distinct (Rng.create ~seed:c.seed) ~n ~id_max:(n + c.spread)
      in
      let sched =
        if c.sched_ix = 0 then Scheduler.random (Rng.create ~seed:c.seed)
        else List.nth (Scheduler.all_deterministic ()) (c.sched_ix - 1)
      in
      let m' = Metrics.create () in
      let tl, rec_sink = recorder g in
      let r, net =
        Gelection.run ~seed:c.seed
          ~sink:(Sink.tee (Sink.counters m') rec_sink)
          (Gelection.plan g) ~ids ~sched
      in
      let m = Gnetwork.metrics net in
      (* Every pulse sent on link [l] arrives at the mailbox [l] feeds,
         and a quiescent run leaves every mailbox drained. *)
      let mailbox_of l =
        let v, p = Gtopology.link_dst g l in
        Gtopology.first_link g v + p
      in
      let arrivals l =
        tl.delivered.(mailbox_of l) + tl.arrived.(mailbox_of l)
      in
      let node_ports v =
        let s = ref 0 in
        for p = 0 to Gtopology.degree g v - 1 do
          s := !s + tl.on_link.(Gtopology.first_link g v + p)
        done;
        !s
      in
      let mismatch =
        List.find_map Fun.id
          [
            (if Metrics.to_assoc m = Metrics.to_assoc m' then None
             else Some "to_assoc");
            (if tl.misrouted = 0 then None else Some "send on a foreign link");
            (if Array.fold_left ( + ) 0 tl.by_node = Metrics.sends m then None
             else Some "sends by node do not sum to sends");
            first_mismatch ~what:"sends by node vs its links" ~range:n
              (fun v -> tl.by_node.(v))
              node_ports;
            first_mismatch ~what:"link sends vs arrivals" ~range:links
              (fun l -> tl.on_link.(l))
              arrivals;
            first_mismatch ~what:"mailbox delivered vs consumed" ~range:links
              (fun l -> tl.delivered.(l))
              (fun l -> tl.consumed.(l));
          ]
      in
      match mismatch with
      | Some what -> QCheck.Test.fail_reportf "counters differ: %s" what
      | None -> Gelection.ok r && Metrics.deliveries m > 0)

(* ------------------------------------------------------------------ *)
(* Carriage differential: pulse networks against payload networks *)

(* A network's messages are either stamps and counts only
   ([Network.Pulses], what every election runs on) or stamps and
   counts plus payload slabs ([Network.Payloads], the classic
   baselines' carriage).  For a [unit] program the two must be
   indistinguishable: byte-identical [events:true] journals (snapshots
   included), equal counters, outputs, termination order and causal
   span, and equal state after every forced and undone delivery. *)

let ring_algorithms =
  [
    Election.Algo1;
    Election.Algo2;
    Election.Algo3 Algo3.Doubled;
    Election.Algo3 Algo3.Improved;
    Election.Algo3_resample;
  ]

(* Scheduler [i] of the deterministic list plus a seeded random one,
   built fresh for each run (round-robin is stateful). *)
let n_scheds = n_deterministic + 1

let nth_sched i ~seed =
  if i = n_deterministic then Scheduler.random (Rng.create ~seed)
  else List.nth (Scheduler.all_deterministic ()) i

(* The networks under test: [algo] on an [n]-ring, or the walk
   election on a [--topology] spec, with ids and topology seeded as
   [colring elect] seeds them. *)
let ring_net ~carry ?sink algo ~n ~seed =
  let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
  let topo =
    match algo with
    | Election.Algo1 | Election.Algo2 -> Topology.oriented n
    | Election.Algo3 _ | Election.Algo3_resample ->
        Topology.random_non_oriented (Rng.create ~seed:(seed + 1)) n
  in
  Network.create_with ~carry ?sink ~seed topo (fun v ->
      Election.program_of algo ~id:ids.(v))

let graph_specs = [ "theta:9"; "k4"; "bowtie"; "random2ec:12:3" ]

let graph_net ~carry ?sink spec ~seed =
  let g = Topo.materialize ~default_n:8 (Result.get_ok (Topo.parse spec)) in
  let n = Gtopology.n g in
  let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
  Gnetwork.create_with ~carry ?sink ~seed g
    (Gelection.program_of (Gelection.plan g) ~ids)

(* One program set run on both carriages under scheduler [i]: all a
   run leaves behind that a caller can observe must agree.  The core's
   functions serve ring and graph networks alike. *)
let check_same what i ~seed make =
  let run carry =
    let buf = Buffer.create 4096 in
    let net = make ~carry ~sink:(Sink.jsonl_buffer buf) in
    let r = Network.run ~snapshot_every:7 net (nth_sched i ~seed) in
    ( Buffer.contents buf,
      Metrics.to_assoc (Network.metrics net),
      r,
      Array.map (Format.asprintf "%a" Output.pp) (Network.outputs net),
      Network.causal_span net )
  in
  let j, m, r, o, c = run Network.Pulses in
  let j', m', r', o', c' = run Network.Payloads in
  checkb (what ^ ": journal non-empty") true (String.length j > 0);
  Alcotest.(check string) (what ^ ": journal") j j';
  checkb (what ^ ": to_assoc") true (m = m');
  checkb (what ^ ": run result") true (r = r');
  Alcotest.(check (array string)) (what ^ ": outputs") o o';
  checki (what ^ ": causal span") c c'

let test_carriage_rings () =
  List.iter
    (fun algo ->
      for i = 0 to n_scheds - 1 do
        List.iter
          (fun (n, seed) ->
            check_same
              (Printf.sprintf "%s n=%d seed=%d sched=%d"
                 (Election.algorithm_name algo) n seed i)
              i ~seed
              (fun ~carry ~sink -> ring_net ~carry ~sink algo ~n ~seed))
          [ (2, 3); (5, 4); (8, 11) ]
      done)
    ring_algorithms

let test_carriage_graphs () =
  List.iter
    (fun spec ->
      for i = 0 to n_scheds - 1 do
        List.iter
          (fun seed ->
            check_same
              (Printf.sprintf "%s seed=%d sched=%d" spec seed i)
              i ~seed
              (fun ~carry ~sink -> graph_net ~carry ~sink spec ~seed))
          [ 4; 9 ]
      done)
    graph_specs

(* Drive a pulse network and a payload network of the same programs
   through one random schedule of forced deliveries, undoing the steps
   since the last save point now and then: after every step and every
   undo both print the same fingerprint and counters, and an undo
   restores the state the undone steps started from. *)
let state net =
  (Network.fingerprint net, Metrics.to_assoc (Network.metrics net))

let nth_enabled net k =
  let l = ref (Network.enabled_link net ~after:(-1)) in
  for _ = 1 to k do
    l := Network.enabled_link net ~after:!l
  done;
  !l

let lockstep ~what ~seed a b =
  let rng = Rng.create ~seed in
  let same tag =
    checkb (Printf.sprintf "%s: %s" what tag) true (state a = state b)
  in
  let stack = ref [] and saved = ref (state a) and steps = ref 0 in
  same "start";
  while Network.enabled_count a > 0 && !steps < 400 do
    incr steps;
    if Rng.int rng 5 = 0 && !stack <> [] then begin
      List.iter
        (fun (ua, ub) ->
          Network.undo_step a ua;
          Network.undo_step b ub)
        !stack;
      stack := [];
      same "after undo";
      checkb (what ^ ": undo restores") true (state a = !saved)
    end
    else begin
      if !stack = [] then saved := state a;
      let k = Rng.int rng (Network.enabled_count a) in
      let link = nth_enabled a k in
      checki (what ^ ": same enabled link") link (nth_enabled b k);
      let ua = Network.force_step_undo a ~link in
      let ub = Network.force_step_undo b ~link in
      stack := (ua, ub) :: !stack;
      same "after step"
    end
  done;
  checkb (what ^ ": walked") true (!steps > 0)

let test_carriage_undo () =
  List.iter
    (fun algo ->
      List.iter
        (fun seed ->
          let a = ring_net ~carry:Network.Pulses algo ~n:5 ~seed in
          let b = ring_net ~carry:Network.Payloads algo ~n:5 ~seed in
          checkb "undo-capable" true (Network.undo_capable a);
          lockstep ~what:(Election.algorithm_name algo) ~seed a b)
        [ 1; 2; 3 ])
    [ Election.Algo1; Election.Algo2; Election.Algo3 Algo3.Improved ];
  List.iter
    (fun spec ->
      lockstep ~what:spec ~seed:5
        (graph_net ~carry:Network.Pulses spec ~seed:5)
        (graph_net ~carry:Network.Payloads spec ~seed:5))
    graph_specs

(* A sink that is not [Sink.null] but reports [enabled = false] is
   still a consumer: the engine must hand it every event (only
   allocating records such as snapshots are gated on [enabled]). *)
let test_disabled_sink_sees_every_event () =
  let g = Gtopology.theta 2 3 4 in
  let n = Gtopology.n g in
  let ids = Ids.distinct (Rng.create ~seed:5) ~n ~id_max:(2 * n) in
  let sends = ref 0 and delivers = ref 0 and consumes = ref 0
  and wakes = ref 0 and decides = ref 0 in
  let sink =
    {
      Sink.null with
      name = "disabled-counter";
      on_send = (fun ~node:_ ~port:_ ~seq:_ ~link:_ ~cw:_ -> incr sends);
      on_deliver = (fun ~node:_ ~port:_ ~seq:_ -> incr delivers);
      on_consume = (fun ~node:_ ~port:_ -> incr consumes);
      on_wake = (fun ~node:_ -> incr wakes);
      on_decide = (fun ~node:_ ~output:_ -> incr decides);
    }
  in
  checkb "sink is disabled" false sink.Sink.enabled;
  let r, net =
    Gelection.run ~sink (Gelection.plan g) ~ids
      ~sched:(Scheduler.random (Rng.create ~seed:5))
  in
  checkb "election ok" true (Gelection.ok r);
  let m = Gnetwork.metrics net in
  Alcotest.(check (list int))
    "sends, deliveries, consumes, wakes"
    [
      Metrics.sends m;
      Metrics.deliveries m;
      Metrics.consumes m;
      Metrics.wakes m;
    ]
    [ !sends; !delivers; !consumes; !wakes ];
  (* Every node leaves [Undecided] once and the leader-to-be claims
     leadership at least once. *)
  checkb "decisions seen" true (!decides > n)

(* Ports are range-checked by the api closures themselves: a port
   outside [0, degree) raises [Invalid_argument] naming the engine and
   leaves no trace in the network.  The node's [mailbox] array is its
   own, so reading it at a bad port raises the array's bounds check. *)
let test_gnetwork_bad_port () =
  let g = Gtopology.theta 1 1 1 in
  let errors = ref [] in
  let bounds = ref 0 in
  let attempt f =
    match f () with
    | () -> errors := "no exception" :: !errors
    | exception Invalid_argument msg -> errors := msg :: !errors
  in
  let read_mailbox (api : unit Gnetwork.api) p =
    match api.mailbox.(p) with
    | _ -> ()
    | exception Invalid_argument _ -> incr bounds
  in
  let net =
    Gnetwork.create g (fun v ->
        {
          Gnetwork.state = Opaque (fun () -> []);
          start =
            (fun api ->
              if v = 0 then
                List.iter
                  (fun p ->
                    attempt (fun () -> api.send p ());
                    attempt (fun () -> ignore (api.recv p));
                    read_mailbox api p)
                  [ -1; api.degree; max_int; min_int ]);
          wake = (fun _ -> ());
        })
  in
  checki "every bad port rejected" 8 (List.length !errors);
  checki "every bad mailbox read rejected" 4 !bounds;
  List.iter
    (fun msg ->
      checkb (msg ^ " names Gnetwork") true
        (String.starts_with ~prefix:"Gnetwork" msg))
    !errors;
  checki "nothing sent" 0 (Gnetwork.sends net);
  checki "nothing in flight" 0 (Gnetwork.in_flight net);
  checki "nothing consumed" 0 (Metrics.consumes (Gnetwork.metrics net))

(* ------------------------------------------------------------------ *)
(* The mailbox view *)

(* [api.mailbox] is the engine's (or the live backend's) own count
   array, handed to the program.  A probe wraps a node program and
   checks [box], that array, at every wake against two oracles: a
   model the probe keeps itself (one arrival since the node's last
   activation, minus what its [recv]s took), and [engine], the
   engine's count for a (node, port), when there is an engine to ask.
   The wrapped api is a record copy, so it holds the very same
   [mailbox] array, as perfbench's traced wrappers do. *)
let probe_wake ~fail ~engine ~node box model wake =
  let check what p got want =
    if got <> want then
      fail
        (Printf.sprintf "node %d port %d %s: mailbox %d, want %d" node p what
           got want)
  in
  let agree what =
    Option.iter
      (fun count ->
        Array.iteri (fun p m -> check what p m (count ~node ~port:p)) box)
      engine
  in
  let arrived = ref 0 in
  Array.iteri
    (fun p m ->
      if box.(p) = m + 1 then incr arrived else check "at wake" p box.(p) m)
    model;
  if !arrived <> 1 then
    fail (Printf.sprintf "node %d: %d ports gained a pulse" node !arrived);
  agree "at wake, engine";
  Array.blit box 0 model 0 (Array.length model);
  wake ();
  Array.iteri (fun p m -> check "after wake" p box.(p) m) model;
  agree "after wake, engine"

let probe_failures () =
  let failures = ref [] in
  (failures, fun s -> failures := s :: !failures)

let probe_ring ~fail ~engine v (p : Network.pulse Network.program) =
  let model = [| 0; 0 |] in
  let took port ok =
    if ok then model.(Port.index port) <- model.(Port.index port) - 1;
    ok
  in
  let wrap (api : Network.pulse Network.api) =
    {
      api with
      Network.recv_pulse = (fun port -> took port (api.recv_pulse port));
      recv =
        (fun port ->
          let r = api.recv port in
          ignore (took port (Option.is_some r));
          r);
    }
  in
  {
    p with
    Network.start = (fun api -> p.Network.start (wrap api));
    wake =
      (fun api ->
        probe_wake ~fail ~engine:(engine ()) ~node:v api.Network.mailbox model
          (fun () -> p.Network.wake (wrap api)));
  }

let view_scheds seed =
  [ Scheduler.random (Rng.create ~seed); Scheduler.fifo; Scheduler.lifo ]

let test_mailbox_view_ring () =
  List.iter
    (fun (algo, n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + 5) in
      let topo =
        match algo with
        | Election.Algo1 | Election.Algo2 -> Topology.oriented n
        | _ -> Topology.random_non_oriented rng n
      in
      List.iter
        (fun (sched : Scheduler.t) ->
          let failures, fail = probe_failures () in
          let net = ref None in
          let engine () =
            Option.map
              (fun net ~node ~port ->
                Network.mailbox_length net ~node ~port:(Port.of_index port))
              !net
          in
          let r =
            Network.create topo (fun v ->
                probe_ring ~fail ~engine v
                  (Election.program_of algo ~id:ids.(v)))
          in
          net := Some r;
          let res = Network.run r sched in
          let label = sched.Scheduler.name in
          checkb (label ^ " quiescent") true res.Network.quiescent;
          checkb (label ^ " woke") true (Metrics.wakes (Network.metrics r) > n);
          Alcotest.(check (list string)) label [] (List.rev !failures))
        (view_scheds seed))
    [
      (Election.Algo1, 7, 1);
      (Election.Algo2, 8, 2);
      (Election.Algo3 Algo3.Doubled, 6, 3);
      (Election.Algo3 Algo3.Improved, 9, 4);
    ]

(* A graph core's counts, from the engine's own deliver and consume
   events. *)
let event_counts g =
  let counts =
    Array.init (Gtopology.n g) (fun v -> Array.make (Gtopology.degree g v) 0)
  in
  let bump node port d = counts.(node).(port) <- counts.(node).(port) + d in
  ( {
      Sink.null with
      name = "mailbox counts";
      on_deliver = (fun ~node ~port ~seq:_ -> bump node port 1);
      on_consume = (fun ~node ~port -> bump node port (-1));
    },
    fun ~node ~port -> counts.(node).(port) )

let probe_graph ~fail ~engine g v (p : unit Gnetwork.program) =
  let model = Array.make (Gtopology.degree g v) 0 in
  let wrap (api : unit Gnetwork.api) =
    {
      api with
      Gnetwork.recv =
        (fun port ->
          let r = api.recv port in
          if Option.is_some r then model.(port) <- model.(port) - 1;
          r);
    }
  in
  {
    p with
    Gnetwork.start = (fun api -> p.Gnetwork.start (wrap api));
    wake =
      (fun api ->
        probe_wake ~fail ~engine:(Some engine) ~node:v api.Gnetwork.mailbox
          model
          (fun () -> p.Gnetwork.wake (wrap api)));
  }

let test_mailbox_view_graph () =
  List.iter
    (fun (g, seed) ->
      let n = Gtopology.n g in
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + 5) in
      let plan = Gelection.plan g in
      List.iter
        (fun (sched : Scheduler.t) ->
          let failures, fail = probe_failures () in
          let sink, counts = event_counts g in
          let net =
            Gnetwork.create ~sink g (fun v ->
                probe_graph ~fail ~engine:counts g v
                  (Gelection.program_of plan ~ids v))
          in
          let res = Gnetwork.run net sched in
          checkb "quiescent" true res.Gnetwork.quiescent;
          Alcotest.(check (list string))
            sched.Scheduler.name [] (List.rev !failures))
        (view_scheds seed))
    [
      (Gtopology.theta 1 2 3, 1);
      (Gtopology.complete 4, 2);
      (Gtopology.bowtie (), 3);
      (Gtopology.cycle_with_chords (Rng.create ~seed:9) ~n:12 ~chords:3, 4);
    ]

(* The domains backend hands each node [Transport.mailbox_api] over the
   backend's own count array; no engine to ask, so the probe's model
   is the oracle.  Each node's probe state is touched by its own domain
   only; failures are collected under a lock. *)
let test_mailbox_view_domains () =
  let lock = Mutex.create () in
  List.iter
    (fun (algo, n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + 3) in
      let topo =
        match algo with
        | Election.Algo2 -> Topology.oriented n
        | _ -> Topology.random_non_oriented rng n
      in
      let failures, fail0 = probe_failures () in
      let fail s = Mutex.protect lock (fun () -> fail0 s) in
      let trace =
        Colring_transport.Domains.run ~seed topo (fun v ->
            probe_ring ~fail ~engine:(fun () -> None) v
              (Election.program_of algo ~id:ids.(v)))
      in
      checkb "quiescent" true trace.Transport.quiescent;
      Alcotest.(check (list string)) "domains" [] (List.rev !failures))
    [ (Election.Algo2, 5, 1); (Election.Algo3 Algo3.Improved, 4, 2) ]

(* ------------------------------------------------------------------ *)
(* Cross-validation: the ring algorithms on the graph simulator *)

let prop_algo3_cross_simulator =
  QCheck.Test.make
    ~name:"algo3 on Gnetwork ring = algo3 on ring engine" ~count:80
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 2 16) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Ids.distinct rng ~n ~id_max:(n + Rng.int rng 30) in
      (* Graph simulator on the ring-as-graph. *)
      let g = Gtopology.ring n in
      let gnet =
        Gnetwork.create g (fun v ->
            Circulate.algo3_deg2 ~scheme:Algo3.Improved ~id:ids.(v))
      in
      let gres = Gnetwork.run gnet (Scheduler.random (Rng.split rng)) in
      (* Ring engine on an oriented ring (the graph builder wires node
         v's port 1 toward v+1 except at the wrap nodes; roles and
         totals are topology-labeling-independent). *)
      let r =
        Election.run_report (Election.Algo3 Algo3.Improved)
          ~topo:(Topology.oriented n) ~ids
          ~sched:(Scheduler.random (Rng.split rng))
      in
      gres.Gnetwork.quiescent
      && gres.Gnetwork.sends = r.sends
      && Array.for_all
           (fun v ->
             Output.equal_role
               (Gnetwork.output gnet v).Output.role
               (if v = Ids.argmax ids then Output.Leader else Output.Non_leader))
           (Array.init n Fun.id))

let test_cross_simulator_counters () =
  let ids = [| 6; 2; 11; 5 |] in
  let g = Gtopology.ring 4 in
  let gnet =
    Gnetwork.create g (fun v ->
        Circulate.algo3_deg2 ~scheme:Algo3.Improved ~id:ids.(v))
  in
  let _ = Gnetwork.run gnet Scheduler.lifo in
  (* At quiescence each node received ID_max+1 pulses in one direction
     and ID_max in the other (Theorem 2's analysis). *)
  for v = 0 to 3 do
    let r0 = Gnetwork.inspect_counter gnet v "rho0" in
    let r1 = Gnetwork.inspect_counter gnet v "rho1" in
    Alcotest.(check (list int))
      (Printf.sprintf "counts at %d" v)
      [ 11; 12 ]
      (List.sort compare [ r0; r1 ])
  done

(* ------------------------------------------------------------------ *)
(* The exploratory rotor: a naive generalization that does not elect. *)

let test_gnetwork_budget_reports_exhaustion () =
  (* A run stopped by [max_deliveries] must say so ([exhausted =
     true]) rather than silently truncate — the same budget contract
     as the ring engine's Network.run (and, since this regression, the
     same 50M default). *)
  let g = Gtopology.ring 4 in
  let ids = Ids.distinct (Rng.create ~seed:3) ~n:4 ~id_max:12 in
  let net = Gnetwork.create g (fun v -> Circulate.rotor ~id:ids.(v)) in
  let r = Gnetwork.run ~max_deliveries:2 net Scheduler.fifo in
  checkb "exhaustion reported" true r.Gnetwork.exhausted;
  checki "stopped at the budget" 2 r.Gnetwork.deliveries;
  checkb "not quiescent" false r.Gnetwork.quiescent

let test_rotor_does_not_solve_election () =
  (* The naive generalization is NOT a leader election: the checker
     finds a schedule of [Spec.rotor_ablation] that quiesces with two
     Leaders, minimizes it and confirms it by replay.  The CLI's
     [check --target ablation:rotor] reports the same verdict. *)
  let module Mc = Colring_mc.Mc in
  let (Colring_mc.Spec.Packed spec) =
    Colring_mc.Spec.of_target "ablation:rotor" ~ids:[||] ~topo_seed:0
  in
  checkb "expects a violation" true spec.Mc.expect_violation;
  (* 21 states. *)
  let r = Mc.check ~max_states:210 spec in
  (match r.Mc.counterexample with
  | None -> Alcotest.fail "ablation:rotor: no counterexample found"
  | Some ce ->
      Alcotest.(check string) "violation" "2 leaders" ce.Mc.violation;
      checkb "replays" true
        (snd (Mc.replay spec ce.Mc.schedule) = Some ce.Mc.violation);
      checkb "confirmed via of_schedule" true (Mc.confirm spec ce));
  checkb "same verdict at -j 2" true
    (Mc.check ~jobs:2 ~max_states:210 spec = r);
  let exe = colring_exe () in
  let out = Filename.temp_file "colring" ".out" in
  let code =
    Sys.command
      (Filename.quote_command exe
         [ "check"; "--target"; "ablation:rotor" ]
         ~stdout:out)
  in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all)
  in
  Sys.remove out;
  checki "check exits 0" 0 code;
  List.iter
    (fun line -> checkb line true (List.mem line lines))
    [
      "violation           2 leaders";
      "replay reproduces   true";
      "verdict             broken as predicted (counterexample found)";
    ]

let () =
  Alcotest.run "colring-graph"
    [
      ( "topology",
        [
          Alcotest.test_case "ring" `Quick test_ring_graph_shape;
          Alcotest.test_case "theta" `Quick test_theta_shape;
          Alcotest.test_case "complete" `Quick test_complete_shape;
          Alcotest.test_case "bridges" `Quick test_bridges;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "validation" `Quick test_of_edges_validation;
          QCheck_alcotest.to_alcotest prop_cycle_with_chords_2ec;
        ] );
      ( "ears",
        [
          Alcotest.test_case "ring" `Quick test_ears_ring;
          Alcotest.test_case "theta" `Quick test_ears_theta;
          Alcotest.test_case "bowtie" `Quick test_ears_bowtie;
          Alcotest.test_case "K4" `Quick test_ears_k4;
          Alcotest.test_case "bridge ablation" `Quick test_ears_bridge_ablation;
          QCheck_alcotest.to_alcotest prop_ears_random2ec;
        ] );
      ( "walk election",
        [
          Alcotest.test_case "families" `Quick test_gelection_families;
          Alcotest.test_case "exact sends" `Quick test_gelection_sends_exact;
          Alcotest.test_case "bridge ablation" `Quick test_gelection_ablation;
          QCheck_alcotest.to_alcotest prop_gelection_random2ec;
        ] );
      ( "ring special case",
        [ QCheck_alcotest.to_alcotest prop_ring_walk_is_algo1 ] );
      ( "carriage",
        [
          Alcotest.test_case "rings: pulses = payloads" `Quick
            test_carriage_rings;
          Alcotest.test_case "graphs: pulses = payloads" `Quick
            test_carriage_graphs;
          Alcotest.test_case "undo in lockstep" `Quick test_carriage_undo;
        ] );
      ( "gnetwork",
        [
          Alcotest.test_case "fifo and drop" `Quick test_gnetwork_fifo_and_drop;
          Alcotest.test_case "per-node rng" `Quick test_gnetwork_per_node_rng;
          Alcotest.test_case "bad ports rejected" `Quick test_gnetwork_bad_port;
          QCheck_alcotest.to_alcotest prop_counting_split;
          Alcotest.test_case "disabled sink sees every event" `Quick
            test_disabled_sink_sees_every_event;
        ] );
      ( "mailbox view",
        [
          Alcotest.test_case "ring = engine counts" `Quick
            test_mailbox_view_ring;
          Alcotest.test_case "graph = engine counts" `Quick
            test_mailbox_view_graph;
          Alcotest.test_case "domains backend" `Quick
            test_mailbox_view_domains;
        ] );
      ( "cross-validation",
        [
          QCheck_alcotest.to_alcotest prop_algo3_cross_simulator;
          Alcotest.test_case "counters" `Quick test_cross_simulator_counters;
        ] );
      ( "rotor (exploratory)",
        [
          Alcotest.test_case "budget reports exhaustion" `Quick
            test_gnetwork_budget_reports_exhaustion;
          Alcotest.test_case "does not solve election" `Quick
            test_rotor_does_not_solve_election;
        ] );
    ]
