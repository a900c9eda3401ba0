(* Tests for the discrete-event simulator: topology invariants, FIFO
   channel semantics, scheduler behaviour, mailboxes, termination
   accounting, traces, and the effects-based blocking layer. *)

open Colring_engine
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_oriented () =
  let t = Topology.oriented 5 in
  Topology.check t;
  checkb "oriented" true (Topology.is_oriented t);
  checki "cw neighbor" 3 (Topology.cw_neighbor t 2);
  checki "ccw neighbor" 1 (Topology.ccw_neighbor t 2);
  checki "wraps" 0 (Topology.cw_neighbor t 4);
  checki "distance" 3 (Topology.distance_cw t 4 2);
  let w, p = Topology.peer t 1 Port.P1 in
  checki "peer node" 2 w;
  checkb "peer port" true (Port.equal p Port.P0)

let test_topology_non_oriented () =
  let t = Topology.non_oriented ~flips:[| false; true; false; true |] in
  Topology.check t;
  checkb "not oriented" false (Topology.is_oriented t);
  checkb "flip ground truth" true (Topology.flipped t 1);
  (* Flipping relabels ports but not the ring structure. *)
  checki "cw neighbor" 2 (Topology.cw_neighbor t 1);
  checki "ccw neighbor" 0 (Topology.ccw_neighbor t 1);
  let w, p = Topology.peer t 1 Port.P0 in
  (* Node 1 is flipped, so its clockwise port is P0; node 2 is not
     flipped, so clockwise pulses arrive on its P0. *)
  checki "peer node" 2 w;
  checkb "peer port" true (Port.equal p Port.P0)

let test_topology_self_ring () =
  let t = Topology.oriented 1 in
  Topology.check t;
  checki "self cw" 0 (Topology.cw_neighbor t 0);
  let w, p = Topology.peer t 0 Port.P1 in
  checki "self peer" 0 w;
  checkb "arrives other port" true (Port.equal p Port.P0)

let test_topology_all_flip_patterns_are_rings () =
  for n = 1 to 6 do
    for mask = 0 to (1 lsl n) - 1 do
      let flips = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
      Topology.check (Topology.non_oriented ~flips)
    done
  done;
  checkb "all valid" true true

let test_link_direction () =
  let t = Topology.oriented 3 in
  let cw_link = Topology.link_id t 0 Port.P1 in
  let ccw_link = Topology.link_id t 0 Port.P0 in
  checkb "cw" true (Topology.link_travels_cw t cw_link);
  checkb "ccw" false (Topology.link_travels_cw t ccw_link)

(* ------------------------------------------------------------------ *)
(* Network semantics *)

(* A relay that forwards everything from P0 to P1 with payloads. *)
let relay_program () =
  {
    Network.state = Opaque (fun () -> []);
    Network.start = (fun _ -> ());
    wake =
      (fun (api : _ Network.api) ->
        let continue = ref true in
        while !continue do
          match api.recv Port.P0 with
          | Some m -> api.send Port.P1 m
          | None -> continue := false
        done);
  }

(* Node 0 injects [k] numbered messages, everyone forwards, node 0
   collects them back. *)
let test_fifo_order_preserved () =
  let collected = ref [] in
  let injector k =
    {
      Network.state = Opaque (fun () -> []);
      Network.start =
        (fun (api : _ Network.api) ->
          for i = 1 to k do
            api.send Port.P1 i
          done);
      wake =
        (fun api ->
          let continue = ref true in
          while !continue do
            match api.recv Port.P0 with
            | Some m -> collected := m :: !collected
            | None -> continue := false
          done);
    }
  in
  let topo = Topology.oriented 4 in
  List.iter
    (fun sched ->
      collected := [];
      let net =
        Network.create_with ~carry:Payloads topo (fun v ->
            if v = 0 then injector 5 else relay_program ())
      in
      let result = Network.run net sched in
      checkb (sched.Scheduler.name ^ " quiescent") true result.quiescent;
      Alcotest.(check (list int))
        (sched.Scheduler.name ^ " fifo order")
        [ 1; 2; 3; 4; 5 ] (List.rev !collected))
    (Scheduler.all_deterministic ()
    @ [ Scheduler.random (Rng.create ~seed:1) ])

let test_send_counts_and_metrics () =
  let topo = Topology.oriented 3 in
  let net =
    Network.create topo (fun v ->
        if v = 0 then
          {
            Network.state = Opaque (fun () -> []);
            Network.start = (fun api -> api.send Port.P1 ());
            wake = (fun _ -> ());
          }
        else Network.silent_program)
  in
  let result = Network.run net Scheduler.fifo in
  checki "sends" 1 result.sends;
  checki "deliveries" 1 result.deliveries;
  checkb "not quiescent (mailbox backlog)" false result.quiescent;
  checki "backlog" 1 (Network.mailbox_backlog net);
  checki "cw sends" 1 (Metrics.sends_cw (Network.metrics net))

let test_terminated_nodes_drop_pulses () =
  let topo = Topology.oriented 2 in
  (* Node 0 sends two pulses; node 1 terminates after consuming one. *)
  let net =
    Network.create topo (fun v ->
        if v = 0 then
          {
            Network.state = Opaque (fun () -> []);
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P1 ());
            wake = (fun _ -> ());
          }
        else
          {
            Network.state = Opaque (fun () -> []);
            Network.start = (fun _ -> ());
            wake =
              (fun api ->
                match api.recv Port.P0 with
                | Some () -> api.terminate ()
                | None -> ());
          })
  in
  let result = Network.run net Scheduler.fifo in
  checki "one dropped" 1
    (Metrics.post_termination_deliveries (Network.metrics net));
  checkb "quiescent" true result.quiescent;
  Alcotest.(check (list int)) "termination order" [ 1 ] result.termination_order

let test_send_after_terminate_rejected () =
  let topo = Topology.oriented 1 in
  Alcotest.check_raises "send after terminate"
    (Failure "Network: send after terminate") (fun () ->
      ignore
        (Network.create topo (fun _ ->
             {
               Network.state = Opaque (fun () -> []);
               Network.start =
                 (fun api ->
                   api.terminate ();
                   api.send Port.P1 ());
               wake = (fun _ -> ());
             })))

let test_scheduler_determinism () =
  (* Same seed => identical executions, different seed => (almost surely)
     different delivery traces for a workload with interleaving. *)
  let run seed =
    let topo = Topology.oriented 6 in
    let net =
      Network.create ~sink:(Sink.memory ()) topo (fun v ->
          Colring_core.Algo2.program ~id:(v + 3))
    in
    let _ = Network.run net (Scheduler.random (Rng.create ~seed)) in
    match Network.trace net with
    | Some tr -> Trace.events tr
    | None -> []
  in
  checkb "same seed same trace" true (run 5 = run 5);
  checkb "different seed different trace" true (run 5 <> run 6)

let test_trace_consume_sequence () =
  let topo = Topology.oriented 1 in
  let net =
    Network.create ~sink:(Sink.memory ()) topo (fun _ ->
        Colring_core.Algo1.program ~id:3)
  in
  let _ = Network.run net Scheduler.fifo in
  match Network.trace net with
  | None -> Alcotest.fail "no trace"
  | Some tr ->
      (* Algorithm 1 with id 3 alone: the node consumes 3 CW pulses. *)
      checki "consumes" 3 (List.length (Trace.consumed_ports tr ~node:0))

let test_max_deliveries_exhaustion () =
  (* A two-node pulse ping-pong never quiesces; the engine must stop and
     flag exhaustion. *)
  let forever =
    {
      Network.state = Opaque (fun () -> []);
      Network.start = (fun (api : _ Network.api) -> api.send Port.P1 ());
      wake =
        (fun api ->
          let continue = ref true in
          while !continue do
            match api.recv Port.P0 with
            | Some () -> api.send Port.P1 ()
            | None -> continue := false
          done);
    }
  in
  let net = Network.create (Topology.oriented 2) (fun _ -> forever) in
  let result = Network.run ~max_deliveries:100 net Scheduler.fifo in
  checkb "exhausted" true result.exhausted;
  checki "stopped at bound" 100 result.deliveries

(* Node [v]'s stream is [Rng.split_at (Rng.create ~seed) v], split on
   its program's first read; a second read continues the same stream,
   and a warm reset splits again from the new seed. *)
let test_per_node_rng_streams_differ () =
  let seen = ref [] in
  let program v =
    {
      Network.state = Opaque (fun () -> []);
      Network.start =
        (fun (api : _ Network.api) ->
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
  let net = Network.create ~seed:7 (Topology.oriented 4) program in
  check "create" (expected 7) (draws ());
  Network.reset ~seed:9 net program;
  check "reset to another seed" (expected 9) (draws ());
  Network.reset ~seed:7 net program;
  check "reset back" (expected 7) (draws ());
  checki "four distinct draws" 4
    (List.length
       (List.sort_uniq compare (List.map (fun (_, a, _) -> a) (expected 7))))

(* ------------------------------------------------------------------ *)
(* Schedulers *)

let mk_two_senders sink =
  (* Node 0 sends CW then CCW in one batch; a fifo scheduler with CW
     priority must deliver the CW pulse first. *)
  Network.create ~sink (Topology.oriented 2) (fun v ->
      if v = 0 then
        {
          Network.state = Opaque (fun () -> []);
          Network.start =
            (fun api ->
              api.send Port.P0 ();
              (* CCW, sent first *)
              api.send Port.P1 () (* CW, sent second *));
          wake = (fun _ -> ());
        }
      else Network.silent_program)

(* The deliveries a memory sink saw, as (node, port) in order. *)
let deliveries_seen sink =
  List.filter_map
    (function
      | Trace.Deliver { node; port; _ } -> Some (node, Port.index port)
      | _ -> None)
    (Trace.events (Option.get (Sink.trace sink)))

let check_deliveries what want sink =
  Alcotest.(check (list (pair int int))) what want (deliveries_seen sink)

let test_fifo_cw_priority () =
  let sink = Sink.memory () in
  let net = mk_two_senders sink in
  ignore (Network.step net Scheduler.fifo);
  (* The CW pulse from node 0 arrives at node 1's P0, and only it. *)
  check_deliveries "cw delivered first" [ (1, 0) ] sink

let test_global_fifo_send_order () =
  let sink = Sink.memory () in
  let net = mk_two_senders sink in
  ignore (Network.step net Scheduler.global_fifo);
  (* Strict send order: the CCW pulse was sent first. *)
  check_deliveries "ccw delivered first" [ (1, 1) ] sink

let test_starve_node_delays () =
  (* With two pulses headed to different nodes, starve-node-1 must pick
     the other node's delivery first. *)
  let sink = Sink.memory () in
  let net =
    Network.create ~sink (Topology.oriented 3) (fun v ->
        if v = 0 then
          {
            Network.state = Opaque (fun () -> []);
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                (* to node 1 *)
                api.send Port.P0 () (* to node 2 *));
            wake = (fun _ -> ());
          }
        else Network.silent_program)
  in
  ignore (Network.step net (Scheduler.starve_node ~node:1));
  check_deliveries "node 2 first" [ (2, 1) ] sink

(* ------------------------------------------------------------------ *)
(* Blocking layer *)

let test_blocking_ping_pong () =
  (* Node 0: send CW, await reply CCW, terminate.  Node 1: await CW,
     reply CCW, terminate.  Written in direct style. *)
  let zero api =
    api.Network.send Port.P1 ();
    Blocking.recv Port.P1;
    api.set_output (Output.with_value 1 Output.empty);
    api.terminate ()
  in
  let one api =
    Blocking.recv Port.P0;
    api.Network.send Port.P0 ();
    api.set_output (Output.with_value 2 Output.empty);
    api.terminate ()
  in
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        Blocking.make (if v = 0 then zero else one))
  in
  let result = Network.run net Scheduler.fifo in
  checkb "all terminated" true result.all_terminated;
  checkb "quiescent" true result.quiescent;
  checki "sends" 2 result.sends;
  Alcotest.(check (option int)) "node0 value" (Some 1)
    (Network.output net 0).Output.value

let test_blocking_recv_any () =
  (* Node 0 sends on both ports; node 1 (blocking) consumes two pulses
     with recv_any and records the ports. *)
  let got = ref [] in
  let one _api =
    let p1 = Blocking.recv_any () in
    let p2 = Blocking.recv_any () in
    got := [ p1; p2 ]
  in
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        if v = 0 then
          {
            Network.state = Opaque (fun () -> []);
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P0 ());
            wake = (fun _ -> ());
          }
        else Blocking.make one)
  in
  let result = Network.run net Scheduler.fifo in
  checkb "quiescent" true result.quiescent;
  checki "both consumed" 2 (List.length !got)

let test_blocking_immediate_mailbox () =
  (* A blocking recv must consume a pulse that is already waiting. *)
  let order = ref [] in
  let one _api =
    Blocking.recv Port.P0;
    order := 1 :: !order;
    Blocking.recv Port.P0;
    order := 2 :: !order
  in
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        if v = 0 then
          {
            Network.state = Opaque (fun () -> []);
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P1 ());
            wake = (fun _ -> ());
          }
        else Blocking.make one)
  in
  let result = Network.run net Scheduler.fifo in
  checkb "quiescent" true result.quiescent;
  Alcotest.(check (list int)) "both recvs ran" [ 2; 1 ] !order

(* ------------------------------------------------------------------ *)
(* Forced stepping and state accessors (the model checker's toolkit) *)

let test_force_step_and_accessors () =
  let topo = Topology.oriented 3 in
  let net =
    Network.create topo (fun v -> Colring_core.Algo1.program ~id:(v + 1))
  in
  (* Three start-up pulses in flight, one per clockwise link. *)
  checki "three enabled links" 3 (Network.enabled_count net);
  checki "in flight" 3 (Network.in_flight net);
  let link = Topology.link_id topo 0 Port.P1 in
  checki "channel length" 1 (Network.channel_length net ~link);
  Network.force_step net ~link;
  checki "consumed from that link" 0 (Network.channel_length net ~link);
  Alcotest.check_raises "empty link rejected"
    (Invalid_argument "Network.force_step: empty link") (fun () ->
      Network.force_step net ~link)

let test_mailbox_length_tracks_guarded_pulses () =
  (* A program that never consumes: deliveries pile up in the mailbox. *)
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        if v = 0 then
          {
            Network.state = Opaque (fun () -> []);
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P1 ());
            wake = (fun _ -> ());
          }
        else Network.silent_program)
  in
  let _ = Network.run net Scheduler.fifo in
  checki "mailbox holds both" 2
    (Network.mailbox_length net ~node:1 ~port:Port.P0);
  checki "backlog" 2 (Network.mailbox_backlog net);
  checkb "not quiescent" false (Network.is_quiescent net)

let test_diagram_deterministic () =
  let render () =
    let net =
      Network.create ~sink:(Sink.memory ()) (Topology.oriented 2) (fun v ->
          Colring_core.Algo2.program ~id:(v + 1))
    in
    let _ = Network.run net Scheduler.fifo in
    match Network.trace net with
    | Some tr -> Diagram.render tr ~n:2
    | None -> ""
  in
  Alcotest.(check string) "stable" (render ()) (render ())

(* ------------------------------------------------------------------ *)
(* Round-robin over synthetic views *)

(* A view over a fixed link set with trivial metadata, as the network
   would present it — the buffer is deliberately unordered. *)
let synthetic_view links =
  {
    Scheduler.nonempty = Array.copy links;
    count = Array.length links;
    head_seq = (fun l -> l);
    head_batch = (fun _ -> 0);
    travels_cw = (fun _ -> None);
    dst_node = (fun _ -> 0);
    step = 0;
  }

(* ------------------------------------------------------------------ *)
(* Direction keys over the optional ground truth *)

(* Even link ids travel cw, odd ids ccw, and links >= 100 belong to a
   directionless (general-graph) topology. *)
let directed_view links =
  {
    (synthetic_view links) with
    Scheduler.head_batch = (fun _ -> 0);
    head_seq = (fun l -> l);
    travels_cw =
      (fun l -> if l >= 100 then None else Some (l mod 2 = 0));
  }

let test_direction_bias_option () =
  (* fifo breaks batch ties cw-first; [None] links count as
     non-preferred, so the oldest cw link wins over both. *)
  let v = directed_view [| 101; 3; 4; 2 |] in
  checki "fifo prefers oldest cw" 2 (Scheduler.fifo.Scheduler.pick v);
  let v = directed_view [| 101; 3; 5 |] in
  checki "fifo falls back to seq among non-cw" 3
    (Scheduler.fifo.Scheduler.pick v);
  let bias_ccw = Scheduler.bias_direction ~cw:false in
  let v = directed_view [| 101; 2; 5; 3 |] in
  checki "bias-ccw prefers oldest ccw" 3 (bias_ccw.Scheduler.pick v);
  let bias_cw = Scheduler.bias_direction ~cw:true in
  (* A directionless view never satisfies either bias: both degrade to
     their seq tie-break over the whole link set. *)
  let v = synthetic_view [| 104; 101; 103 |] in
  checki "bias-cw degrades to seq on None" 101 (bias_cw.Scheduler.pick v);
  let v = synthetic_view [| 104; 101; 103 |] in
  checki "bias-ccw degrades to seq on None" 101 (bias_ccw.Scheduler.pick v)

let test_round_robin_fairness () =
  (* Over a static link set every link must be picked equally often,
     regardless of buffer order. *)
  let v = synthetic_view [| 9; 1; 6 |] in
  let rr = Scheduler.round_robin () in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3_000 do
    let l = rr.Scheduler.pick v in
    Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
  done;
  checki "link 1" 1_000 (Hashtbl.find counts 1);
  checki "link 6" 1_000 (Hashtbl.find counts 6);
  checki "link 9" 1_000 (Hashtbl.find counts 9)

let test_round_robin_wrap () =
  (* After picking the largest link the cursor passes every link id;
     the next pick must wrap to the smallest non-empty link. *)
  let v = synthetic_view [| 9; 1; 6 |] in
  let rr = Scheduler.round_robin () in
  checki "first" 1 (rr.Scheduler.pick v);
  checki "second" 6 (rr.Scheduler.pick v);
  checki "third" 9 (rr.Scheduler.pick v);
  checki "wraps to smallest" 1 (rr.Scheduler.pick v)

(* ------------------------------------------------------------------ *)
(* Every scheduler picks a member of the non-empty prefix *)

let assert_member (s : Scheduler.t) =
  {
    Scheduler.name = s.Scheduler.name ^ "+member";
    pick =
      (fun v ->
        let l = s.Scheduler.pick v in
        let ok = ref false in
        for i = 0 to v.Scheduler.count - 1 do
          if v.Scheduler.nonempty.(i) = l then ok := true
        done;
        if not !ok then
          Alcotest.failf "%s picked link %d outside the non-empty prefix"
            s.Scheduler.name l;
        l);
  }

let test_all_schedulers_pick_members () =
  let schedulers =
    Scheduler.all_deterministic () @ [ Scheduler.random (Rng.create ~seed:3) ]
  in
  List.iter
    (fun s ->
      let n = 8 in
      let net =
        Network.create ~seed:1 (Topology.oriented n) (fun v ->
            Colring_core.Algo2.program ~id:(v + 1))
      in
      let r = Network.run ~max_deliveries:20_000 net (assert_member s) in
      checkb
        (Printf.sprintf "%s made progress" s.Scheduler.name)
        true (r.deliveries > 0))
    schedulers

(* ------------------------------------------------------------------ *)
(* Whole-run determinism *)

let run_fingerprint ~seed ~sched_seed n =
  let net =
    Network.create ~seed (Topology.oriented n) (fun v ->
        Colring_core.Algo2.program ~id:(v + 1))
  in
  let r = Network.run net (Scheduler.random (Rng.create ~seed:sched_seed)) in
  (r, Metrics.to_assoc (Network.metrics net), Network.causal_span net)

let test_determinism_same_seed () =
  (* The reusable mutable view and the unordered non-empty buffer must
     not leak nondeterminism: equal seeds give bit-equal runs. *)
  let r1, m1, c1 = run_fingerprint ~seed:5 ~sched_seed:11 9 in
  let r2, m2, c2 = run_fingerprint ~seed:5 ~sched_seed:11 9 in
  checkb "run_result equal" true (r1 = r2);
  checkb "metrics equal" true (m1 = m2);
  checki "causal span equal" c1 c2

(* ------------------------------------------------------------------ *)
(* Injection uses the send path's batch convention *)

let test_inject_batch_stamp () =
  let net =
    Network.create (Topology.oriented 2) (fun _ -> Network.silent_program)
  in
  (* Two start activations have run, so the current batch is 2; an
     injected pulse must be stamped with it, exactly as a send from the
     most recent activation would be. *)
  Network.inject net ~node:0 ~port:Port.P1 ();
  let seen = ref (-1) in
  let probe =
    {
      Scheduler.name = "probe";
      pick =
        (fun v ->
          let l = v.Scheduler.nonempty.(0) in
          seen := v.Scheduler.head_batch l;
          l);
    }
  in
  checkb "stepped" true (Network.step net probe);
  checki "inject stamps current batch" 2 !seen

(* ------------------------------------------------------------------ *)
(* The network's queues: growth with a wrapped live span, stamps in
   lockstep with payloads, undo's deque operations, and popped payload
   slots released.  The "ring" cases drive a mailbox (count plus
   payload slab), the "envq" cases a channel (stamp queue plus payload
   slab); the names are those of the standalone queue modules these
   queues replaced. *)

(* Two nodes with silent programs, node 1's api kept so a test can
   consume from its mailboxes at will.  Node 0's P1 link feeds node
   1's P0 mailbox; the test fills it with [Network.inject]. *)
let puppet_pair ~carry =
  let api1 = ref None in
  let net =
    Network.create_with ~carry (Topology.oriented 2) (fun v ->
        if v = 1 then
          { Network.silent_program with start = (fun api -> api1 := Some api) }
        else Network.silent_program)
  in
  let link = Topology.link_id (Network.topology net) 0 Port.P1 in
  checkb "link 0.P1 feeds 1.P0" true
    (Topology.link_dst (Network.topology net) link = (1, Port.P0));
  (net, Option.get !api1, link)

let test_ring_grow_mid_wrap () =
  let net, api1, link = puppet_pair ~carry:Network.Payloads in
  let model = Queue.create () in
  let arrive i =
    Network.inject net ~node:0 ~port:Port.P1 i;
    Network.force_step net ~link;
    Queue.push i model
  in
  let consume () =
    checki "fifo" (Queue.pop model) (Option.get (api1.recv Port.P0))
  in
  (* Fill the mailbox to the initial power-of-two capacity, drain past
     the midpoint so its head is non-zero, then deliver enough to force
     growth while the live span wraps around the array end. *)
  for i = 0 to 7 do
    arrive i
  done;
  for _ = 0 to 4 do
    consume ()
  done;
  for i = 8 to 40 do
    arrive i
  done;
  checki "count = slab" (Queue.length model) api1.mailbox.(0);
  Alcotest.(check (array int))
    "payloads across grow"
    (Array.of_seq (Queue.to_seq model))
    (Network.mailbox_payloads net ~node:1 ~port:Port.P0);
  while not (Queue.is_empty model) do
    consume ()
  done;
  checkb "drained" true (api1.recv Port.P0 = None);
  (* A pulse mailbox is the count alone. *)
  let net, api1, link = puppet_pair ~carry:Network.Pulses in
  for _ = 1 to 40 do
    Network.inject net ~node:0 ~port:Port.P1 ();
    Network.force_step net ~link
  done;
  checki "pulse count" 40 (Network.mailbox_length net ~node:1 ~port:Port.P0);
  checki "pulse payloads" 40
    (Array.length (Network.mailbox_payloads net ~node:1 ~port:Port.P0));
  for _ = 1 to 40 do
    checkb "pulse recv" true (api1.recv Port.P0 = Some Network.pulse)
  done;
  checkb "pulse mailbox drained" false (api1.recv_pulse Port.P0)

(* A channel queue model: payload [100 + i] is the [i]th injection, so
   its send sequence number is [i]; its batch is the activation count
   at injection time (2 start-ups, then one per delivery to node 1). *)
type chan_model = {
  net : int Network.t;
  api1 : int Network.api;
  fifo : (int * int) Queue.t; (* seq, batch *)
  mutable sent : int;
  mutable batch : int;
}

let chan_model () =
  let net, api1, _ = puppet_pair ~carry:Network.Payloads in
  { net; api1; fifo = Queue.create (); sent = 0; batch = 2 }

let chan_push c =
  Network.inject c.net ~node:0 ~port:Port.P1 (100 + c.sent);
  Queue.push (c.sent, c.batch) c.fifo;
  c.sent <- c.sent + 1

(* Deliver the head envelope; true iff its stamps and payload are the
   model's head. *)
let chan_pop_matches c =
  let seq, batch = Queue.pop c.fifo in
  let head = ref (-1, -1) in
  let probe =
    {
      Scheduler.name = "probe";
      pick =
        (fun v ->
          let l = v.Scheduler.nonempty.(0) in
          head := (v.Scheduler.head_seq l, v.Scheduler.head_batch l);
          l);
    }
  in
  let stepped = Network.step c.net probe in
  c.batch <- c.batch + 1;
  stepped && !head = (seq, batch) && c.api1.recv Port.P0 = Some (100 + seq)

let test_envq_grow_mid_wrap_meta () =
  let c = chan_model () in
  for _ = 0 to 7 do
    chan_push c
  done;
  for _ = 0 to 4 do
    checkb "head matches" true (chan_pop_matches c)
  done;
  (* Growth happens with the head at slot 5: payloads and the stride-3
     stamps must both be unwrapped consistently. *)
  for _ = 8 to 40 do
    chan_push c
  done;
  let link = Topology.link_id (Network.topology c.net) 0 Port.P1 in
  Alcotest.(check (array int))
    "in-flight payloads"
    (Array.of_seq (Seq.map (fun (s, _) -> 100 + s) (Queue.to_seq c.fifo)))
    (Network.channel_payloads c.net ~link);
  while not (Queue.is_empty c.fifo) do
    checkb "head matches" true (chan_pop_matches c)
  done;
  checki "every envelope has depth 1" 1 (Network.causal_span c.net)

(* The probes live in [@inline never] helpers so no caller register
   keeps the popped payload reachable.  A slab retains at most the
   FIRST payload ever pushed (its clearing filler), so the tracked
   payload is the second one. *)
let[@inline never] push_pop_probe ~consume (w : int ref Weak.t) =
  let net, api1, link = puppet_pair ~carry:Network.Payloads in
  if not consume then api1.terminate ();
  let probe = ref 42 in
  Weak.set w 0 (Some probe);
  Network.inject net ~node:0 ~port:Port.P1 (ref 0);
  Network.inject net ~node:0 ~port:Port.P1 probe;
  Network.force_step net ~link;
  Network.force_step net ~link;
  if consume then begin
    ignore (api1.recv Port.P0);
    ignore (api1.recv Port.P0)
  end;
  net

let released ~consume =
  let w = Weak.create 1 in
  let net = push_pop_probe ~consume w in
  Gc.full_major ();
  Gc.full_major ();
  let gone = Weak.get w 0 = None in
  ignore (Sys.opaque_identity net);
  gone

(* Delivered into the mailbox slab, then consumed. *)
let test_ring_pop_releases_payload () =
  checkb "consumed payload is collectable" true (released ~consume:true)

(* Delivered to a terminated node: only the channel slab held it. *)
let test_envq_pop_releases_payload () =
  checkb "dropped payload is collectable" true (released ~consume:false)

let prop_envq_meta_survives_growth =
  (* Model check against Stdlib.Queue: any interleaving of injections,
     deliveries and undone deliveries (biased toward injections so
     growth triggers) keeps payloads and their seq/batch stamps in FIFO
     lockstep; an undone delivery leaves no trace. *)
  QCheck.Test.make ~name:"envq matches a queue of (payload, meta) triples"
    ~count:300
    QCheck.(list (QCheck.make QCheck.Gen.(int_range 0 5)))
    (fun ops ->
      let c = chan_model () in
      let link = Topology.link_id (Network.topology c.net) 0 Port.P1 in
      let undo_leaves_no_trace () =
        let fp = Network.fingerprint c.net in
        let pl = Network.channel_payloads c.net ~link in
        let u = Network.force_step_undo c.net ~link in
        Network.undo_step c.net u;
        String.equal fp (Network.fingerprint c.net)
        && pl = Network.channel_payloads c.net ~link
      in
      List.for_all
        (fun op ->
          if op = 0 && not (Queue.is_empty c.fifo) then chan_pop_matches c
          else if op = 1 && not (Queue.is_empty c.fifo) then
            undo_leaves_no_trace ()
          else begin
            chan_push c;
            true
          end)
        ops
      &&
      let ok = ref true in
      while !ok && not (Queue.is_empty c.fifo) do
        ok := chan_pop_matches c
      done;
      !ok)

(* A payload program that lets its P0 mailbox back up: odd wakes
   consume nothing, even wakes forward up to two messages (payload + 1)
   on P1, so an undone wake must re-file several payloads in order. *)
let lazy_relay ~first () =
  let wakes = [| 0 |] in
  {
    Network.start =
      (fun api ->
        for k = 0 to first - 1 do
          api.Network.send Port.P1 (1000 * (k + 1))
        done);
    wake =
      (fun api ->
        wakes.(0) <- wakes.(0) + 1;
        if wakes.(0) mod 2 = 0 then
          for _ = 1 to 2 do
            match api.recv Port.P0 with
            | Some m -> if m mod 1000 < 20 then api.send Port.P1 (m + 1)
            | None -> ()
          done);
    state = Regs { names = [| "wakes" |]; cells = wakes };
  }

(* Every payload a payload network holds, channel by channel and
   mailbox by mailbox, with the fingerprint. *)
let contents net n =
  ( Network.fingerprint net,
    List.init (2 * n) (fun link -> Network.channel_payloads net ~link),
    List.init n (fun v ->
        ( Network.mailbox_payloads net ~node:v ~port:Port.P0,
          Network.mailbox_payloads net ~node:v ~port:Port.P1 )) )

let prop_payload_undo_restores_contents =
  QCheck.Test.make ~name:"payload undo restores every payload in order"
    ~count:200
    QCheck.(
      triple
        (QCheck.make QCheck.Gen.(int_range 2 5))
        (QCheck.make QCheck.Gen.(int_range 0 40))
        small_nat)
    (fun (n, plen, seed) ->
      let net =
        Network.create_with ~carry:Network.Payloads (Topology.oriented n)
          (fun v -> lazy_relay ~first:(if v = 0 then 3 else 1) ())
      in
      let rng = Rng.create ~seed in
      let pick () =
        let k = Rng.int rng (Network.enabled_count net) in
        let l = ref (Network.enabled_link net ~after:(-1)) in
        for _ = 1 to k do
          l := Network.enabled_link net ~after:!l
        done;
        !l
      in
      let i = ref 0 in
      while !i < plen && Network.enabled_count net > 0 do
        Network.force_step net ~link:(pick ());
        incr i
      done;
      let before = contents net n in
      let undos = ref [] in
      let j = ref 0 in
      while !j < 15 && Network.enabled_count net > 0 do
        undos := Network.force_step_undo net ~link:(pick ()) :: !undos;
        incr j
      done;
      List.iter (Network.undo_step net) !undos;
      contents net n = before)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_random_topologies_check =
  QCheck.Test.make ~name:"random non-oriented topologies are rings" ~count:200
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 64)) small_nat)
    (fun (n, seed) ->
      let t = Topology.random_non_oriented (Rng.create ~seed) n in
      Topology.check t;
      Topology.distance_cw t 0 0 = 0)

let prop_conservation =
  (* Sends = deliveries + in-flight at all times; after a full run of a
     quiescent algorithm, sends = deliveries + drops. *)
  QCheck.Test.make ~name:"pulse conservation" ~count:100
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 16)) small_nat)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Colring_core.Ids.dense rng ~n in
      let net =
        Network.create (Topology.oriented n) (fun v ->
            Colring_core.Algo2.program ~id:ids.(v))
      in
      let result = Network.run net (Scheduler.random (Rng.split rng)) in
      let m = Network.metrics net in
      result.sends
      = result.deliveries + Metrics.post_termination_deliveries m
        + Network.in_flight net)

let () =
  Alcotest.run "colring-engine"
    [
      ( "topology",
        [
          Alcotest.test_case "oriented" `Quick test_topology_oriented;
          Alcotest.test_case "non-oriented" `Quick test_topology_non_oriented;
          Alcotest.test_case "self ring" `Quick test_topology_self_ring;
          Alcotest.test_case "all flip patterns" `Quick
            test_topology_all_flip_patterns_are_rings;
          Alcotest.test_case "link direction" `Quick test_link_direction;
        ] );
      ( "network",
        [
          Alcotest.test_case "fifo order" `Quick test_fifo_order_preserved;
          Alcotest.test_case "metrics" `Quick test_send_counts_and_metrics;
          Alcotest.test_case "terminated drop" `Quick
            test_terminated_nodes_drop_pulses;
          Alcotest.test_case "send after terminate" `Quick
            test_send_after_terminate_rejected;
          Alcotest.test_case "scheduler determinism" `Quick
            test_scheduler_determinism;
          Alcotest.test_case "trace consumes" `Quick test_trace_consume_sequence;
          Alcotest.test_case "exhaustion" `Quick test_max_deliveries_exhaustion;
          Alcotest.test_case "per-node rng" `Quick
            test_per_node_rng_streams_differ;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "fifo cw priority" `Quick test_fifo_cw_priority;
          Alcotest.test_case "global fifo" `Quick test_global_fifo_send_order;
          Alcotest.test_case "starve node" `Quick test_starve_node_delays;
          Alcotest.test_case "round-robin fairness" `Quick
            test_round_robin_fairness;
          Alcotest.test_case "round-robin wrap" `Quick test_round_robin_wrap;
          Alcotest.test_case "direction bias option" `Quick
            test_direction_bias_option;
          Alcotest.test_case "picks are members" `Quick
            test_all_schedulers_pick_members;
          Alcotest.test_case "same seed, same run" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "inject batch stamp" `Quick
            test_inject_batch_stamp;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "ping pong" `Quick test_blocking_ping_pong;
          Alcotest.test_case "recv_any" `Quick test_blocking_recv_any;
          Alcotest.test_case "immediate mailbox" `Quick
            test_blocking_immediate_mailbox;
        ] );
      ( "exploration-toolkit",
        [
          Alcotest.test_case "force step" `Quick test_force_step_and_accessors;
          Alcotest.test_case "mailbox length" `Quick
            test_mailbox_length_tracks_guarded_pulses;
          Alcotest.test_case "diagram deterministic" `Quick
            test_diagram_deterministic;
        ] );
      ( "queues",
        [
          Alcotest.test_case "ring grow mid-wrap" `Quick test_ring_grow_mid_wrap;
          Alcotest.test_case "envq grow mid-wrap meta" `Quick
            test_envq_grow_mid_wrap_meta;
          Alcotest.test_case "ring pop releases payload" `Quick
            test_ring_pop_releases_payload;
          Alcotest.test_case "envq pop releases payload" `Quick
            test_envq_pop_releases_payload;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_random_topologies_check;
            prop_conservation;
            prop_envq_meta_survives_growth;
            prop_payload_undo_restores_contents;
          ] );
    ]
