open Colring_engine

type algorithm = Algo1 | Algo2 | Algo3 of Algo3.id_scheme | Algo3_resample

let algorithm_name = function
  | Algo1 -> "algo1"
  | Algo2 -> "algo2"
  | Algo3 Algo3.Doubled -> "algo3-doubled"
  | Algo3 Algo3.Improved -> "algo3-improved"
  | Algo3_resample -> "algo3-resample"

type report = {
  algorithm : string;
  n : int;
  id_max : int;
  sends : int;
  expected_sends : int;
  sends_cw : int;
  sends_ccw : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  post_term_deliveries : int;
  causal_span : int;
  leader : int option;
  leader_is_max : bool;
  roles_ok : bool;
  orientation_ok : bool option;
  termination_order_ok : bool option;
  final_ids : int array;
}

let unique_leader = Output.unique_leader

let roles_ok outputs =
  match unique_leader outputs with
  | None -> false
  | Some _ ->
      Array.for_all
        (fun (o : Output.t) ->
          Output.equal_role o.role Output.Leader
          || Output.equal_role o.role Output.Non_leader)
        outputs

let orientation_consistent topo outputs =
  let claimed v =
    match (outputs.(v) : Output.t).cw_port with
    | Some p -> p
    | None -> raise Exit
  in
  try
    let n = Topology.n topo in
    let consistent = ref true in
    for v = 0 to n - 1 do
      (* A clockwise pulse leaves w via w's clockwise port, so it must
         arrive at the peer on the port *opposite* the peer's claimed
         clockwise port. *)
      let w, q = Topology.peer topo v (claimed v) in
      if Port.equal q (claimed w) then consistent := false
    done;
    !consistent
  with Exit -> false

let expected_termination_order topo ~leader =
  let n = Topology.n topo in
  let rec go cur acc k =
    if k = n then List.rev acc
    else
      let next = Topology.ccw_neighbor topo cur in
      go next (next :: acc) (k + 1)
  in
  (* CCW walk starting one step before the leader... i.e. the pulse
     from the leader reaches the leader's CCW neighbour first and the
     leader itself last. *)
  go leader [] 0

let program_of algorithm ~id =
  match algorithm with
  | Algo1 -> Algo1.program ~id
  | Algo2 -> Algo2.program ~id
  | Algo3 scheme -> Algo3.program ~scheme ~id
  | Algo3_resample -> Algo3.program_resampling ~id

let expected_sends algorithm ~n ~id_max =
  match algorithm with
  | Algo1 -> Formulas.algo1_total ~n ~id_max
  | Algo2 -> Formulas.algo2_total ~n ~id_max
  | Algo3 Algo3.Doubled -> Formulas.algo3_doubled_total ~n ~id_max
  | Algo3 Algo3.Improved | Algo3_resample ->
      Formulas.algo3_improved_total ~n ~id_max

let ok r =
  r.sends = r.expected_sends && r.quiescent && (not r.exhausted)
  && r.post_term_deliveries = 0 && r.leader_is_max && r.roles_ok
  && Option.value ~default:true r.orientation_ok
  && Option.value ~default:true r.termination_order_ok
  && (r.algorithm <> "algo2" || r.all_terminated)

(* The report as flat journal fields, in declaration order; absent
   options become "none"/"n/a" strings so every run_end record has the
   same keys. *)
let report_fields r =
  let open Sink in
  let opt_bool = function
    | Some b -> Bool b
    | None -> String "n/a"
  in
  [
    ("algorithm", String r.algorithm);
    ("n", Int r.n);
    ("id_max", Int r.id_max);
    ("sends", Int r.sends);
    ("expected_sends", Int r.expected_sends);
    ("sends_cw", Int r.sends_cw);
    ("sends_ccw", Int r.sends_ccw);
    ("deliveries", Int r.deliveries);
    ("quiescent", Bool r.quiescent);
    ("all_terminated", Bool r.all_terminated);
    ("exhausted", Bool r.exhausted);
    ("post_term_deliveries", Int r.post_term_deliveries);
    ("causal_span", Int r.causal_span);
    ("leader", match r.leader with Some v -> Int v | None -> String "none");
    ("leader_is_max", Bool r.leader_is_max);
    ("roles_ok", Bool r.roles_ok);
    ("orientation_ok", opt_bool r.orientation_ok);
    ("termination_order_ok", opt_bool r.termination_order_ok);
    ("final_ids",
     String
       (String.concat ";"
          (Array.to_list (Array.map string_of_int r.final_ids))));
    ("ok", Bool (ok r));
  ]

(* Argument validation; the id_max the report needs. *)
let validate algorithm ~topo ~ids =
  let n = Topology.n topo in
  if Array.length ids <> n then invalid_arg "Election.run: |ids| <> n";
  Array.iter
    (fun id -> if id < 1 then invalid_arg "Election.run: ids must be positive")
    ids;
  (match algorithm with
  | Algo1 | Algo2 ->
      if not (Topology.is_oriented topo) then
        invalid_arg "Election.run: Algorithms 1 and 2 need an oriented ring"
  | Algo3 _ | Algo3_resample -> ());
  Ids.id_max ids

(* The run body shared by a fresh and a warm core.  The run_start
   record goes out before [load] builds or resets the network, which
   already runs the start-up activations. *)
let exec ~seed ?max_deliveries ~(sink : Sink.t) ~workload ~snapshot_every
    algorithm ~topo ~ids ~sched load =
  let id_max = validate algorithm ~topo ~ids in
  let n = Topology.n topo in
  if sink.Sink.enabled then
    sink.Sink.on_run_start
      [
        ("algorithm", Sink.String (algorithm_name algorithm));
        ("n", Sink.Int n);
        ("id_max", Sink.Int id_max);
        ("seed", Sink.Int seed);
        ("workload", Sink.String workload);
        ("scheduler", Sink.String sched.Scheduler.name);
      ];
  let net = load (fun v -> program_of algorithm ~id:ids.(v)) in
  let result = Network.run ?max_deliveries ~snapshot_every net sched in
  let m = Network.metrics net in
  let outputs = Network.outputs net in
  let leader = unique_leader outputs in
  let leader_is_max =
    match leader with Some v -> v = Ids.argmax ids | None -> false
  in
  let orientation_ok =
    match algorithm with
    | Algo3 _ | Algo3_resample -> Some (orientation_consistent topo outputs)
    | Algo1 | Algo2 -> None
  in
  let termination_order_ok =
    match (algorithm, leader) with
    | Algo2, Some l ->
        Some
          (result.termination_order = expected_termination_order topo ~leader:l)
    | Algo2, None -> Some false
    | (Algo1 | Algo3 _ | Algo3_resample), _ -> None
  in
  let final_ids =
    Array.init n (fun v ->
        match List.assoc_opt "id" (Network.inspect net v) with
        | Some id -> id
        | None -> ids.(v))
  in
  let report =
    {
      algorithm = algorithm_name algorithm;
      n;
      id_max;
      sends = result.sends;
      expected_sends = expected_sends algorithm ~n ~id_max;
      sends_cw = Metrics.sends_cw m;
      sends_ccw = Metrics.sends_ccw m;
      deliveries = result.deliveries;
      quiescent = result.quiescent;
      all_terminated = result.all_terminated;
      exhausted = result.exhausted;
      post_term_deliveries = Metrics.post_termination_deliveries m;
      causal_span = Network.causal_span net;
      leader;
      leader_is_max;
      roles_ok = roles_ok outputs;
      orientation_ok;
      termination_order_ok;
      final_ids;
    }
  in
  if sink.Sink.enabled then begin
    (* A closing snapshot at the final delivery count, so a journal
       always ends with the exact [Metrics.to_assoc] of the run, then
       the report itself. *)
    sink.Sink.on_snapshot ~step:report.deliveries (Metrics.to_assoc m);
    sink.Sink.on_run_end (report_fields report);
    sink.Sink.flush ()
  end;
  (report, net)

let run ?(seed = 0) ?max_deliveries ?(sink = Sink.null) ?(workload = "-")
    ?(snapshot_every = 10_000) algorithm ~topo ~ids ~sched =
  exec ~seed ?max_deliveries ~sink ~workload ~snapshot_every algorithm ~topo
    ~ids ~sched (Network.create ~sink ~seed topo)

let run_report ?seed ?max_deliveries ?sink ?workload ?snapshot_every algorithm
    ~topo ~ids ~sched =
  fst
    (run ?seed ?max_deliveries ?sink ?workload ?snapshot_every algorithm ~topo
       ~ids ~sched)

let run_warm ?(seed = 0) ?max_deliveries ?(sink = Sink.null) ?(workload = "-")
    ?(snapshot_every = 10_000) net algorithm ~ids ~sched =
  fst
    (exec ~seed ?max_deliveries ~sink ~workload ~snapshot_every algorithm
       ~topo:(Network.topology net) ~ids ~sched (fun programs ->
         Network.reset ~sink ~seed net programs;
         net))
