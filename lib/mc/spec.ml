open Colring_engine
open Colring_core
module Classic = Colring_classic
module Rng = Colring_stats.Rng
open Colring_graph

type ablation = No_lag | Same_virtual_ids | No_absorption
type packed = Packed : (_, _) Network.core Mc.spec -> packed

(* ------------------------------------------------------------------ *)
(* Verdict pieces (the terminal predicates are conjunctions of these) *)

let all_of checks net =
  let rec go = function
    | [] -> None
    | c :: rest -> ( match c net with Some _ as v -> v | None -> go rest)
  in
  go checks

let check_quiescent net =
  if Network.is_quiescent net then None
  else Some "messages delivered but never consumed at quiescence"

let check_all_terminated net =
  if Network.all_terminated net then None
  else Some "quiescent without every node terminated"

(* [formula] names the closed form the send count answers to: the
   paper's, or a walk election's [walk_length * id_max]. *)
let check_sends_exact ~formula ~expected net =
  let sends = Metrics.sends (Network.metrics net) in
  if sends = expected then None
  else
    Some
      (Printf.sprintf "sends %d at quiescence, the %s says %d" sends formula
         expected)

(* Exactly one Leader, at [leader_node], and nobody Undecided.  A walk
   election decides only the nodes its walk [covered], so an uncovered
   node must stay Undecided; [max_id] says where the Leader belongs
   when another node claims it. *)
let check_roles_in ~covered ~max_id ~leader_node net =
  let outs = Network.outputs net in
  let bad = ref None in
  Array.iteri
    (fun v (o : Output.t) ->
      if !bad = None then
        if not (covered v) then begin
          if not (Output.equal_role o.role Output.Undecided) then
            bad :=
              Some
                (Printf.sprintf "uncovered node %d decided (role %s)" v
                   (Output.role_to_string o.role))
        end
        else
          match o.role with
          | Output.Leader when v <> leader_node ->
              bad :=
                Some
                  (Printf.sprintf
                     "node %d elected Leader but the %s is at node %d" v max_id
                     leader_node)
          | Output.Undecided ->
              bad := Some (Printf.sprintf "node %d undecided at quiescence" v)
          | Output.Leader | Output.Non_leader -> ())
    outs;
  match !bad with
  | Some _ as b -> b
  | None ->
      if Output.equal_role outs.(leader_node).role Output.Leader then None
      else Some "no leader elected"

let everyone _ = true

let check_roles ~leader_node net =
  check_roles_in ~covered:everyone ~max_id:"maximal ID" ~leader_node net

let check_orientation net =
  if Election.orientation_consistent (Network.topology net) (Network.outputs net)
  then None
  else Some "claimed clockwise ports do not form one consistent direction"

(* ------------------------------------------------------------------ *)
(* Safety monitors *)

(* The one per-step check that is sound for the stabilizing algorithms
   (1 and 3): the schedule-independent send total is an upper bound at
   every intermediate state, not just at quiescence.  Roles are NOT
   checked per step — two transient Leaders are legitimate while the
   counters still climb (that is what stabilizing means). *)
let sends_bound_monitor ~limit ~bound () net =
  let sends = Metrics.sends (Network.metrics net) in
  if sends > bound then
    Some (Printf.sprintf "sends %d exceed the %s %d" sends limit bound)
  else None

(* Algorithm 2 runs Algorithm 1 over its clockwise channel, so its
   {e outputs} revise like any stabilizing algorithm's; what Theorem 1
   pins down per step is everything about {e termination}: no pulse
   reaches a terminated node, nodes terminate along the promised
   counterclockwise order ([order], leader last) — the terminated set
   must always be a prefix of it — and a terminated node's role is
   frozen at its final value (Leader only for the max-ID node,
   [order]'s last entry).  Plus the send bound.  All checks are
   functions of the observed state, as [dedup] requires. *)
let terminating_monitor ~bound ~order () =
  let k = Array.length order in
  let leader_node = order.(k - 1) in
  fun net ->
    let m = Network.metrics net in
    let sends = Metrics.sends m in
    if sends > bound then
      Some (Printf.sprintf "sends %d exceed the paper bound %d" sends bound)
    else if Metrics.post_termination_deliveries m > 0 then
      Some "pulse delivered to a terminated node"
    else begin
      let violation = ref None in
      let frontier = ref 0 in
      while !frontier < k && Network.terminated net order.(!frontier) do
        incr frontier
      done;
      let j = ref !frontier in
      while !j < k do
        (if !violation = None && Network.terminated net order.(!j) then
           violation :=
             Some
               (Printf.sprintf
                  "node %d terminated before node %d, out of the Theorem 1 \
                   order"
                  order.(!j)
                  order.(!frontier)));
        incr j
      done;
      let i = ref 0 in
      while !i < !frontier do
        let v = order.(!i) in
        let role = (Network.output net v).Output.role in
        let expected =
          if v = leader_node then Output.Leader else Output.Non_leader
        in
        (if !violation = None && not (Output.equal_role role expected) then
           violation :=
             Some
               (Printf.sprintf "node %d terminated with role %s, expected %s" v
                  (Output.role_to_string role)
                  (Output.role_to_string expected)));
        incr i
      done;
      !violation
    end

(* ------------------------------------------------------------------ *)
(* Reduction masks

   Source-set reduction needs the mask of links that can ever carry a
   pulse.  Unidirectional (clockwise-only) protocols use the clockwise
   half of the links; bidirectional ones use all of them.  The checker
   verifies the declaration dynamically, so a wrong mask fails loudly
   rather than pruning unsoundly. *)

let mask_links topo keep =
  let m = ref 0 in
  for l = 0 to Topology.num_links topo - 1 do
    if keep l then m := !m lor (1 lsl l)
  done;
  !m

let cw_only topo = Mc.Source { live = mask_links topo (Topology.link_travels_cw topo) }
let all_links topo = Mc.Source { live = mask_links topo (fun _ -> true) }

(* ------------------------------------------------------------------ *)
(* Spec builders *)

let guard_ids ids =
  if Array.length ids < 2 then invalid_arg "Spec: need at least 2 nodes";
  Array.iter
    (fun id -> if id < 1 then invalid_arg "Spec: ids must be positive")
    ids

let algo2_shape ~name ~program ~ids =
  let n = Array.length ids in
  let id_max = Ids.id_max ids in
  let leader_node = Ids.argmax ids in
  let topo = Topology.oriented n in
  let bound = Formulas.algo2_total ~n ~id_max in
  let order =
    Array.of_list (Election.expected_termination_order topo ~leader:leader_node)
  in
  {
    Mc.name;
    make = (fun () -> Network.create topo (fun v -> program ~id:ids.(v)));
    monitor = terminating_monitor ~bound ~order;
    terminal =
      all_of
        [
          check_quiescent;
          check_all_terminated;
          check_sends_exact ~formula:"paper's formula" ~expected:bound;
          check_roles ~leader_node;
        ];
    max_depth = bound + 1;
    dedup = true;
    (* The termination-order monitor observes the interleaving (which
       node terminated first), which source-set reordering does not
       preserve: sleep sets only. *)
    reduction = Mc.Sleep;
    symmetry = None;
    expect_violation = false;
  }

let stabilizing_shape ~name ~program ~topo ~ids ~bound ~orientation ~reduction =
  let leader_node = Ids.argmax ids in
  let terminal_checks =
    [
      check_quiescent;
      check_sends_exact ~formula:"paper's formula" ~expected:bound;
    ]
    @ (if orientation then [ check_orientation ] else [])
    @ [ check_roles ~leader_node ]
  in
  {
    Mc.name;
    make = (fun () -> Network.create topo (fun v -> program ~id:ids.(v)));
    monitor = sends_bound_monitor ~limit:"paper bound" ~bound;
    terminal = all_of terminal_checks;
    max_depth = bound + 1;
    dedup = true;
    (* The per-step property is a monotone counter bound and the rest
       is asserted at quiescence; both are invariant under reordering
       of commuting deliveries, so source sets are sound. *)
    reduction;
    symmetry = None;
    expect_violation = false;
  }

let election algorithm ~ids ~topo_seed =
  guard_ids ids;
  let n = Array.length ids in
  let id_max = Ids.id_max ids in
  match algorithm with
  | Election.Algo2 -> algo2_shape ~name:"algo2" ~program:Algo2.program ~ids
  | Election.Algo1 ->
      let topo = Topology.oriented n in
      stabilizing_shape ~name:"algo1" ~program:Algo1.program ~topo ~ids
        ~bound:(Formulas.algo1_total ~n ~id_max)
        ~orientation:false ~reduction:(cw_only topo)
  | Election.Algo3 scheme ->
      let name, bound =
        match scheme with
        | Algo3.Doubled ->
            ("algo3-doubled", Formulas.algo3_doubled_total ~n ~id_max)
        | Algo3.Improved ->
            ("algo3-improved", Formulas.algo3_improved_total ~n ~id_max)
      in
      let topo = Topology.random_non_oriented (Rng.create ~seed:topo_seed) n in
      stabilizing_shape ~name ~program:(Algo3.program ~scheme) ~topo ~ids ~bound
        ~orientation:true ~reduction:(all_links topo)
  | Election.Algo3_resample ->
      invalid_arg
        "Spec.election: Algo3_resample is randomized; model checking needs a \
         deterministic system"

let ablation which ~ids ~topo_seed =
  guard_ids ids;
  let n = Array.length ids in
  let id_max = Ids.id_max ids in
  let spec =
    match which with
    | No_lag ->
        algo2_shape ~name:"ablation:no-lag" ~program:Ablation.algo2_no_lag ~ids
    | Same_virtual_ids ->
        (* The leader predicate can never hold, so the violation shows
           up at quiescence; the doubled-scheme total is a generous
           in-flight bound. *)
        let topo = Topology.random_non_oriented (Rng.create ~seed:topo_seed) n in
        stabilizing_shape ~name:"ablation:same-virtual-ids"
          ~program:Ablation.algo3_same_virtual_ids ~topo ~ids
          ~bound:(Formulas.algo3_doubled_total ~n ~id_max)
          ~orientation:true ~reduction:(all_links topo)
    | No_absorption ->
        (* Pure relays circulate the initial pulses forever; the
           Corollary 13 send bound breaks within a few deliveries. *)
        let topo = Topology.oriented n in
        stabilizing_shape ~name:"ablation:no-absorption"
          ~program:Ablation.algo1_no_absorption ~topo ~ids
          ~bound:(Formulas.algo1_total ~n ~id_max)
          ~orientation:false ~reduction:(cw_only topo)
  in
  { spec with Mc.expect_violation = true }

let classic name ~ids =
  guard_ids ids;
  let n = Array.length ids in
  let topo = Topology.oriented n in
  let leader_node = Ids.argmax ids in
  (* No closed-form delivery count to lean on: the depth budget is the
     safety net against non-termination.  Content-carrying messages
     are invisible to the fingerprint, so state caching stays off. *)
  let pack : 'm. Mc.reduction -> (id:int -> 'm Network.program) -> packed =
   fun reduction program ->
    Packed
      {
        Mc.name;
        make =
          (fun () ->
            Network.create_with ~carry:Payloads topo (fun v ->
                program ~id:ids.(v)));
        monitor = (fun () _ -> None);
        terminal =
          all_of [ check_all_terminated; check_roles ~leader_node ];
        max_depth = 64 * n * n;
        dedup = false;
        (* Per-step monitoring is off and all properties live at
           quiescent states, which source sets preserve exactly. *)
        reduction;
        symmetry = None;
        expect_violation = false;
      }
  in
  match name with
  | "chang-roberts" -> pack (cw_only topo) Classic.Chang_roberts.program
  | "lelann" -> pack (cw_only topo) Classic.Lelann.program
  | "hirschberg-sinclair" ->
      pack (all_links topo) Classic.Hirschberg_sinclair.program
  | "peterson" -> pack (cw_only topo) Classic.Peterson.program
  | "franklin" -> pack (all_links topo) Classic.Franklin.program
  | "itai-rodeh" ->
      invalid_arg
        "Spec.classic: itai-rodeh is randomized; model checking needs a \
         deterministic system"
  | other -> invalid_arg (Printf.sprintf "Spec.classic: unknown target %S" other)

(* ------------------------------------------------------------------ *)
(* The anonymous relay: the symmetry-reduction exercise target *)

(* Canonicalize a relay state modulo ring rotation: render the full
   observable state (progress counters, per-node inspect counters,
   channel and mailbox occupancies) once per rotation and keep the
   lexicographically smallest string; the link permutation sending the
   winning rotation to position zero rides along so the checker can
   rotate sleep masks into canonical space.  Sound for the relay
   because its program is identical at every node and every checked
   property is rotation-invariant. *)
let relay_symmetry topo =
  let n = Topology.n topo in
  let num_links = Topology.num_links topo in
  fun net ->
    let m = Network.metrics net in
    let header =
      Printf.sprintf "%d/%d/%d#" (Metrics.sends m) (Metrics.deliveries m)
        (Metrics.post_termination_deliveries m)
    in
    let render r =
      let buf = Buffer.create (16 * n) in
      Buffer.add_string buf header;
      for i = 0 to n - 1 do
        let v = (i + r) mod n in
        List.iter
          (fun (_, x) ->
            Buffer.add_string buf (string_of_int x);
            Buffer.add_char buf ',')
          (Network.inspect net v);
        Buffer.add_string buf
          (Printf.sprintf "|%d,%d,%d,%d;"
             (Network.channel_length net ~link:(Topology.link_id topo v Port.P0))
             (Network.channel_length net ~link:(Topology.link_id topo v Port.P1))
             (Network.mailbox_length net ~node:v ~port:0)
             (Network.mailbox_length net ~node:v ~port:1))
      done;
      Buffer.contents buf
    in
    let best_r = ref 0 in
    let best = ref (render 0) in
    for r = 1 to n - 1 do
      let s = render r in
      if String.compare s !best < 0 then begin
        best := s;
        best_r := r
      end
    done;
    let perm = Array.make num_links 0 in
    for l = 0 to num_links - 1 do
      let v, p = Topology.link_src topo l in
      perm.(l) <- Topology.link_id topo ((v - !best_r + n) mod n) p
    done;
    { Mc.key = !best; perm }

let anon_relay ~n =
  if n < 2 then invalid_arg "Spec.anon_relay: need at least 2 nodes";
  let topo = Topology.oriented n in
  let bound = Relay.total_pulses ~n in
  let check_rho net =
    let bad = ref None in
    for v = 0 to n - 1 do
      let rho = Network.inspect_counter net v "rho" in
      if Option.is_none !bad && rho <> Relay.final_rho then
        bad :=
          Some
            (Printf.sprintf "node %d quiesced with rho %d, expected %d" v rho
               Relay.final_rho)
    done;
    !bad
  in
  {
    Mc.name = "anon:relay";
    make = (fun () -> Network.create topo (fun _ -> Relay.program ()));
    monitor = sends_bound_monitor ~limit:"paper bound" ~bound;
    terminal =
      all_of
        [
          check_quiescent;
          check_sends_exact ~formula:"paper's formula" ~expected:bound;
          check_rho;
        ];
    max_depth = bound + 1;
    dedup = true;
    reduction = Mc.Sleep;
    symmetry = Some (relay_symmetry topo);
    expect_violation = false;
  }

(* ------------------------------------------------------------------ *)
(* Walk elections on 2-edge-connected graphs, and the two graph ablations *)

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

(* On a 2-edge-connected graph the walk covers every node, and the
   roles check is the full election verdict. *)
let walk_election ?(name = "walk-election") topo ~ids =
  let plan = Gelection.plan topo in
  let decomp = Gelection.decomposition plan in
  let bound = Gelection.expected_sends plan ~ids in
  {
    Mc.name;
    make = (fun () -> Gelection.make plan ~ids);
    monitor = sends_bound_monitor ~limit:"walk bound" ~bound;
    terminal =
      all_of
        [
          check_quiescent;
          check_sends_exact ~formula:"walk formula" ~expected:bound;
          check_roles_in ~covered:(Ears.covered decomp)
            ~max_id:"covered maximum id"
            ~leader_node:(covered_argmax decomp ~ids);
        ];
    max_depth = bound + 1;
    dedup = true;
    reduction = walk_reduction plan;
    symmetry = None;
    expect_violation = false;
  }

let barbell () =
  Gtopology.of_edges ~n:6
    [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ]

(* What a whole-graph election owes: every node decided, the unique
   Leader at the global maximum id.  The walk election only meets this
   on 2-edge-connected graphs. *)
let check_global_roles ~ids net =
  check_roles_in ~covered:everyone ~max_id:"maximum id"
    ~leader_node:(Ids.argmax ids) net

(* On the barbell the walk covers only the root's triangle and nodes
   3-5 stay Undecided forever: the verdict fails at every quiescent
   state, which is the point. *)
let bridge_ablation ~ids =
  let plan = Gelection.plan ~require_2ec:false (barbell ()) in
  let bound = Gelection.expected_sends plan ~ids in
  {
    Mc.name = "ablation:bridge";
    make = (fun () -> Gelection.make plan ~ids);
    monitor = sends_bound_monitor ~limit:"walk bound" ~bound;
    terminal = all_of [ check_quiescent; check_global_roles ~ids ];
    max_depth = bound + 1;
    dedup = true;
    reduction = walk_reduction plan;
    symmetry = None;
    expect_violation = true;
  }

let check_leader_count net =
  let leaders =
    Array.fold_left
      (fun k (o : Output.t) ->
        if Output.equal_role o.Output.role Output.Leader then k + 1 else k)
      0 (Network.outputs net)
  in
  if leaders = 1 then None else Some (Printf.sprintf "%d leaders" leaders)

(* The naive generalization of the ring relay rule ({!Circulate.rotor}:
   forward on the next port, absorb every ID-th pulse) on the smallest
   theta graph, against the whole-graph verdict.  It always quiesces —
   a node absorbs one of every [id] pulses it receives, so at most
   [id_max * (links + n)] deliveries happen — but it does not elect,
   and the checker must exhibit a schedule that shows it. *)
let rotor_ablation ~ids =
  let g = Gtopology.theta 0 1 1 in
  {
    Mc.name = "ablation:rotor";
    make = (fun () -> Gnetwork.create g (fun v -> Circulate.rotor ~id:ids.(v)));
    monitor = (fun () _ -> None);
    terminal =
      all_of [ check_quiescent; check_leader_count; check_global_roles ~ids ];
    max_depth = Ids.id_max ids * (Gtopology.num_links g + Gtopology.n g);
    dedup = true;
    reduction = Mc.Sleep;
    symmetry = None;
    expect_violation = true;
  }

(* ------------------------------------------------------------------ *)
(* The target table *)

(* The graph targets check one fixed tiny instance each:
   exhaustiveness matters more than id variety here (the qcheck and
   sweep layers cover id variety). *)
let fixed_targets =
  let walk name g ids = Packed (walk_election ~name (g ()) ~ids) in
  [
    ( "walk:theta3",
      [| 2; 4; 1; 3 |],
      walk "walk:theta3" (fun () -> Gtopology.theta 0 1 1) );
    ("walk:k4", [| 3; 1; 4; 2 |], walk "walk:k4" (fun () -> Gtopology.complete 4));
    ("walk:bowtie", [| 2; 5; 1; 4; 3 |], walk "walk:bowtie" Gtopology.bowtie);
    ( "ablation:bridge",
      [| 1; 2; 3; 4; 5; 6 |],
      fun ids -> Packed (bridge_ablation ~ids) );
    ( "ablation:rotor",
      [| 2; 4; 1; 3 |],
      fun ids -> Packed (rotor_ablation ~ids) );
  ]

let targets =
  [
    "algo1";
    "algo2";
    "algo3-doubled";
    "algo3-improved";
    "ablation:no-lag";
    "ablation:same-virtual-ids";
    "ablation:no-absorption";
    "anon:relay";
    "chang-roberts";
    "lelann";
    "hirschberg-sinclair";
    "peterson";
    "franklin";
  ]
  @ List.map (fun (name, _, _) -> name) fixed_targets

let fixed_ids target =
  List.find_map
    (fun (name, ids, _) -> if String.equal name target then Some ids else None)
    fixed_targets

let of_target target ~ids ~topo_seed =
  match
    List.find_opt (fun (name, _, _) -> String.equal name target) fixed_targets
  with
  | Some (_, fixed, build) -> build fixed
  | None -> (
      match target with
      | "algo1" -> Packed (election Election.Algo1 ~ids ~topo_seed)
      | "algo2" -> Packed (election Election.Algo2 ~ids ~topo_seed)
      | "algo3-doubled" ->
          Packed (election (Election.Algo3 Algo3.Doubled) ~ids ~topo_seed)
      | "algo3-improved" ->
          Packed (election (Election.Algo3 Algo3.Improved) ~ids ~topo_seed)
      | "ablation:no-lag" -> Packed (ablation No_lag ~ids ~topo_seed)
      | "ablation:same-virtual-ids" ->
          Packed (ablation Same_virtual_ids ~ids ~topo_seed)
      | "ablation:no-absorption" ->
          Packed (ablation No_absorption ~ids ~topo_seed)
      | "anon:relay" -> Packed (anon_relay ~n:(Array.length ids))
      | "algo3-resample" ->
          invalid_arg
            "Spec.of_target: algo3-resample is randomized; model checking \
             needs a deterministic system"
      | other -> classic other ~ids)
