open Colring_engine
open Colring_graph

(* The walk-election spec family verified exhaustively in CI: small
   2-edge-connected graphs where the whole schedule space fits, and the
   bridge and rotor ablations whose failure the checker must exhibit. *)

let check_quiescent net =
  if Gnetwork.is_quiescent net then None
  else Some "messages delivered but never consumed at quiescence"

let check_sends_exact ~expected net =
  let sends = Metrics.sends (Gnetwork.metrics net) in
  if sends = expected then None
  else
    Some
      (Printf.sprintf "sends %d at quiescence, the walk formula says %d" sends
         expected)

(* Exactly one Leader, at the covered max-id node, covered nodes all
   decided, uncovered nodes all Undecided.  On a 2-edge-connected
   graph every node is covered and this is the full election verdict;
   under the bridge ablation the undecided nodes beyond the bridge
   trip the second clause — the desired counterexample. *)
let check_roles decomp ~leader_node net =
  let outs = Gnetwork.outputs net in
  let bad = ref None in
  let leaders = ref 0 in
  Array.iteri
    (fun v (o : Output.t) ->
      if !bad = None then
        if Ears.covered decomp v then
          match o.Output.role with
          | Output.Leader when v <> leader_node ->
              bad :=
                Some
                  (Printf.sprintf
                     "node %d elected Leader but the covered maximum id is at \
                      node %d"
                     v leader_node)
          | Output.Leader -> incr leaders
          | Output.Undecided ->
              bad := Some (Printf.sprintf "node %d undecided at quiescence" v)
          | Output.Non_leader -> ()
        else if not (Output.equal_role o.Output.role Output.Undecided) then
          bad :=
            Some
              (Printf.sprintf "uncovered node %d decided (role %s)" v
                 (Output.role_to_string o.Output.role)))
    outs;
  match !bad with
  | Some _ as b -> b
  | None -> if !leaders = 1 then None else Some "no leader elected"

let all_of checks net =
  let rec go = function
    | [] -> None
    | c :: rest -> ( match c net with Some _ as v -> v | None -> go rest)
  in
  go checks

(* Sound per step for the stabilizing walk election: the
   schedule-independent total is an upper bound at every intermediate
   state (roles are not checked per step — transient Leaders are
   legitimate while counts climb). *)
let sends_bound_monitor ~bound () net =
  let sends = Metrics.sends (Gnetwork.metrics net) in
  if sends > bound then
    Some (Printf.sprintf "sends %d exceed the walk bound %d" sends bound)
  else None

let covered_argmax decomp ~ids =
  let best = ref (-1) in
  Array.iteri
    (fun v id ->
      if Ears.covered decomp v && (!best < 0 || id > ids.(!best)) then
        best := v)
    ids;
  !best

(* Pulses travel only along the closed spanning walk, so the live mask
   for source-set reduction is exactly the walk's links; the monitor
   is a monotone counter bound and everything else is asserted at
   quiescence, both preserved by the reduction. *)
let walk_reduction plan =
  let live =
    Array.fold_left
      (fun m l -> m lor (1 lsl l))
      0
      (Ears.walk (Gelection.decomposition plan))
  in
  Mc.Source { live }

let walk_election ?(name = "walk-election") topo ~ids =
  let plan = Gelection.plan topo in
  let decomp = Gelection.decomposition plan in
  let bound = Gelection.expected_sends plan ~ids in
  let leader_node = covered_argmax decomp ~ids in
  {
    Mc.name;
    make = (fun () -> Gelection.make plan ~ids);
    monitor = sends_bound_monitor ~bound;
    terminal =
      all_of
        [
          check_quiescent;
          check_sends_exact ~expected:bound;
          check_roles decomp ~leader_node;
        ];
    max_depth = bound + 1;
    dedup = true;
    reduction = walk_reduction plan;
    symmetry = None;
    expect_violation = false;
  }

(* The triangle-bridge-triangle barbell: the walk covers only the
   root's triangle, nodes 3-5 stay Undecided forever, and the checker
   must exhibit that as a (minimized) roles violation. *)
let barbell () =
  Gtopology.of_edges ~n:6
    [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ]

(* What a whole-graph election owes: every node decided, the unique
   Leader at the global maximum id.  The walk election only meets this
   on 2-edge-connected graphs; under the bridge ablation the verdict
   fails at every quiescent state, which is the point. *)
let check_global_roles ~leader_node net =
  let outs = Gnetwork.outputs net in
  let bad = ref None in
  let leaders = ref 0 in
  Array.iteri
    (fun v (o : Output.t) ->
      if !bad = None then
        match o.Output.role with
        | Output.Leader when v <> leader_node ->
            bad :=
              Some
                (Printf.sprintf
                   "node %d elected Leader but the maximum id is at node %d" v
                   leader_node)
        | Output.Leader -> incr leaders
        | Output.Undecided ->
            bad := Some (Printf.sprintf "node %d undecided at quiescence" v)
        | Output.Non_leader -> ())
    outs;
  match !bad with
  | Some _ as b -> b
  | None -> if !leaders = 1 then None else Some "no leader elected"

let argmax ids =
  let best = ref 0 in
  Array.iteri (fun v id -> if id > ids.(!best) then best := v) ids;
  !best

let bridge_ablation ~ids =
  let plan = Gelection.plan ~require_2ec:false (barbell ()) in
  let bound = Gelection.expected_sends plan ~ids in
  {
    Mc.name = "ablation:bridge";
    make = (fun () -> Gelection.make plan ~ids);
    monitor = sends_bound_monitor ~bound;
    terminal =
      all_of [ check_quiescent; check_global_roles ~leader_node:(argmax ids) ];
    max_depth = bound + 1;
    dedup = true;
    reduction = walk_reduction plan;
    symmetry = None;
    expect_violation = true;
  }

(* The naive generalization of the ring relay rule ({!Circulate.rotor}:
   forward on the next port, absorb every ID-th pulse) on the smallest
   theta graph, against the same whole-graph verdict.  It always
   quiesces — a node absorbs one of every [id] pulses it receives, so
   at most [id_max * (links + n)] deliveries happen — but it does not
   elect, and the checker must exhibit a schedule that shows it. *)
let check_leader_count net =
  let leaders =
    Array.fold_left
      (fun k (o : Output.t) ->
        if Output.equal_role o.Output.role Output.Leader then k + 1 else k)
      0 (Gnetwork.outputs net)
  in
  if leaders = 1 then None else Some (Printf.sprintf "%d leaders" leaders)

let rotor_ablation ~ids =
  let g = Gtopology.theta 0 1 1 in
  {
    Mc.name = "ablation:rotor";
    make = (fun () -> Gnetwork.create g (fun v -> Circulate.rotor ~id:ids.(v)));
    monitor = (fun () _ -> None);
    terminal =
      all_of
        [
          check_quiescent;
          check_leader_count;
          check_global_roles ~leader_node:(argmax ids);
        ];
    max_depth =
      Colring_core.Ids.id_max ids * (Gtopology.num_links g + Gtopology.n g);
    dedup = true;
    reduction = Mc.Sleep;
    symmetry = None;
    expect_violation = true;
  }
