open Colring_engine

(* The walk election: run the unidirectional counting election
   (Algorithm 1's automaton) over the closed spanning walk of
   {!Ears}.  The walk is a virtual unidirectional ring whose stations
   are walk positions ("occurrences"); each node designates its first
   occurrence as its active station — that one runs the counting
   automaton with the node's real id — and relays pulses verbatim at
   every other occurrence.  Every occurrence ends up receiving exactly
   [id_max] pulses and sending [id_max] (counting the active station's
   initial pulse), so the total is [walk_len * id_max] and the unique
   maximum-id node stabilizes as leader. *)

type plan = {
  decomp : Ears.t;
  out_port : int array array; (* node -> in-port -> out-port, -1 off-walk *)
  active_port : int array; (* in-port of the designated occurrence; -1 *)
  start_port : int array; (* out-port of the designated occurrence; -1 *)
}

let plan ?require_2ec topo =
  let decomp = Ears.decompose ?require_2ec topo in
  let g = topo in
  let w = Ears.walk decomp in
  let l = Array.length w in
  let n = Gtopology.n g in
  let out_port =
    Array.init n (fun v -> Array.make (Gtopology.degree g v) (-1))
  in
  let active_port = Array.make n (-1) in
  let start_port = Array.make n (-1) in
  let first = Array.make n (-1) in
  Array.iteri
    (fun j link ->
      let v, p = Gtopology.link_src g link in
      if first.(v) < 0 then begin
        first.(v) <- j;
        start_port.(v) <- p
      end)
    w;
  Array.iteri
    (fun j link ->
      (* A delivery over walk position j feeds occurrence j+1. *)
      let dst, dport = Gtopology.link_dst g link in
      let onext = (j + 1) mod l in
      let _, oport = Gtopology.link_src g w.(onext) in
      out_port.(dst).(dport) <- oport;
      if onext = first.(dst) then active_port.(dst) <- dport)
    w;
  { decomp; out_port; active_port; start_port }

let decomposition plan = plan.decomp
let walk_length plan = Ears.walk_length plan.decomp

let covered_id_max plan ~ids =
  let m = ref 0 in
  Array.iteri (fun v id -> if Ears.covered plan.decomp v && id > !m then m := id) ids;
  !m

let expected_sends plan ~ids = walk_length plan * covered_id_max plan ~ids

let covered_argmax plan ~ids =
  let best = ref (-1) in
  Array.iteri
    (fun v id ->
      if Ears.covered plan.decomp v && (!best < 0 || id > ids.(!best)) then
        best := v)
    ids;
  !best

let validate plan ~ids =
  let n = Gtopology.n (Ears.topo plan.decomp) in
  if Array.length ids <> n then invalid_arg "Gelection: |ids| <> n";
  Array.iter
    (fun id -> if id < 1 then invalid_arg "Gelection: ids must be positive")
    ids;
  let m = covered_id_max plan ~ids in
  let at_max = ref 0 in
  Array.iteri
    (fun v id -> if Ears.covered plan.decomp v && id = m then incr at_max)
    ids;
  if !at_max <> 1 then
    invalid_arg "Gelection: covered nodes need a unique maximum id";
  m

(* One full drain of walk port [p]: the per-delivery hot path
   (registered in hot.sexp), so it recurses instead of looping over a
   heap-allocated [continue] ref — the body must not allocate.
   [api.mailbox] shows an empty port without a call.  [c] is the
   node's register file: [c.(0)] its id, [c.(1)] its ρ. *)
let rec walk_step plan ~v ~id c (api : unit Gnetwork.api) p =
  if api.Gnetwork.mailbox.(p) > 0 then
    match api.Gnetwork.recv p with
    | None -> ()
    | Some () ->
        let out = plan.out_port.(v).(p) in
        (if out < 0 then () (* off-walk pulse: impossible by design *)
         else if p = plan.active_port.(v) then begin
           c.(1) <- c.(1) + 1;
           if c.(1) = id then
             (* Absorb: the pulse that completes this node's count is
                not relayed; the node (transiently) claims leadership
                and keeps it iff no later pulse comes. *)
             api.Gnetwork.set_output Output.leader
           else begin
             (* The output is a function of rho: undecided at 0, leader at
                [id], non-leader otherwise, so it only changes to
                non-leader when rho reaches 1 or passes [id]. *)
             if c.(1) = 1 || c.(1) = id + 1 then
               api.Gnetwork.set_output Output.non_leader;
             api.Gnetwork.send out ()
           end
         end
         else api.Gnetwork.send out ());
        walk_step plan ~v ~id c api p

let names = [| "id"; "rho" |]

let program_of plan ~ids v =
  let id = ids.(v) in
  let c = [| id; 0 |] in
  let start (api : _ Gnetwork.api) =
    if plan.start_port.(v) >= 0 then api.Gnetwork.send plan.start_port.(v) ()
  in
  let wake (api : _ Gnetwork.api) =
    for p = 0 to api.Gnetwork.degree - 1 do
      walk_step plan ~v ~id c api p
    done
  in
  { Gnetwork.start; wake; state = Regs { names; cells = c } }

let make ?sink ?seed plan ~ids =
  ignore (validate plan ~ids);
  Gnetwork.create ?sink ?seed (Ears.topo plan.decomp) (program_of plan ~ids)

(* ------------------------------------------------------------------ *)
(* Reports *)

type report = {
  algorithm : string;
  n : int;
  covered : int;
  walk_len : int;
  num_ears : int;
  id_max : int;
  sends : int;
  expected_sends : int;
  deliveries : int;
  quiescent : bool;
  exhausted : bool;
  post_term_deliveries : int;
  leader : int option;
  leader_is_max : bool;
  roles_ok : bool;
}

let roles_ok plan outputs =
  let d = plan.decomp in
  let leaders = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun v (o : Output.t) ->
      if Ears.covered d v then begin
        match o.Output.role with
        | Output.Leader -> incr leaders
        | Output.Non_leader -> ()
        | Output.Undecided -> ok := false
      end
      else if not (Output.equal_role o.Output.role Output.Undecided) then
        ok := false)
    outputs;
  !ok && !leaders = 1

let ok r =
  r.covered = r.n && r.sends = r.expected_sends && r.quiescent
  && (not r.exhausted) && r.post_term_deliveries = 0 && r.leader_is_max
  && r.roles_ok

let report_fields r =
  let open Sink in
  [
    ("algorithm", String r.algorithm);
    ("n", Int r.n);
    ("covered", Int r.covered);
    ("walk_len", Int r.walk_len);
    ("num_ears", Int r.num_ears);
    ("id_max", Int r.id_max);
    ("sends", Int r.sends);
    ("expected_sends", Int r.expected_sends);
    ("deliveries", Int r.deliveries);
    ("quiescent", Bool r.quiescent);
    ("exhausted", Bool r.exhausted);
    ("post_term_deliveries", Int r.post_term_deliveries);
    ("leader", match r.leader with Some v -> Int v | None -> String "none");
    ("leader_is_max", Bool r.leader_is_max);
    ("roles_ok", Bool r.roles_ok);
    ("ok", Bool (ok r));
  ]

(* The run body shared by a fresh and a warm core, as in
   [Election.exec]. *)
let exec ~seed ?max_deliveries ~sink ~workload ~snapshot_every plan ~ids
    ~sched load =
  let id_max = validate plan ~ids in
  let n = Gtopology.n (Ears.topo plan.decomp) in
  if sink.Sink.enabled then
    sink.Sink.on_run_start
      [
        ("algorithm", Sink.String "walk-election");
        ("n", Sink.Int n);
        ("id_max", Sink.Int id_max);
        ("seed", Sink.Int seed);
        ("workload", Sink.String workload);
        ("scheduler", Sink.String sched.Scheduler.name);
      ];
  let net = load (program_of plan ~ids) in
  let result = Gnetwork.run ?max_deliveries ~snapshot_every net sched in
  let outputs = Gnetwork.outputs net in
  let leader = Output.unique_leader outputs in
  let report =
    {
      algorithm = "walk-election";
      n;
      covered = Ears.num_covered plan.decomp;
      walk_len = walk_length plan;
      num_ears = List.length (Ears.ears plan.decomp);
      id_max;
      sends = result.Gnetwork.sends;
      expected_sends = expected_sends plan ~ids;
      deliveries = result.Gnetwork.deliveries;
      quiescent = result.Gnetwork.quiescent;
      exhausted = result.Gnetwork.exhausted;
      post_term_deliveries = Gnetwork.post_termination_deliveries net;
      leader;
      leader_is_max =
        (match leader with
        | Some v -> v = covered_argmax plan ~ids
        | None -> false);
      roles_ok = roles_ok plan outputs;
    }
  in
  if sink.Sink.enabled then begin
    sink.Sink.on_snapshot ~step:report.deliveries
      (Metrics.to_assoc (Gnetwork.metrics net));
    sink.Sink.on_run_end (report_fields report);
    sink.Sink.flush ()
  end;
  (report, net)

let run ?(seed = 0) ?max_deliveries ?(sink = Sink.null) ?(workload = "-")
    ?(snapshot_every = 10_000) plan ~ids ~sched =
  exec ~seed ?max_deliveries ~sink ~workload ~snapshot_every plan ~ids ~sched
    (Gnetwork.create ~sink ~seed (Ears.topo plan.decomp))

let run_warm ?(seed = 0) ?max_deliveries ?(sink = Sink.null) ?(workload = "-")
    ?(snapshot_every = 10_000) net plan ~ids ~sched =
  if not (Gnetwork.topology net == Ears.topo plan.decomp) then
    invalid_arg "Gelection.run_warm: the core is not on the plan's graph";
  fst
    (exec ~seed ?max_deliveries ~sink ~workload ~snapshot_every plan ~ids
       ~sched (fun programs ->
         Gnetwork.reset ~sink ~seed net programs;
         net))

let run_report ?seed ?max_deliveries ?sink ?workload ?snapshot_every plan ~ids
    ~sched =
  fst (run ?seed ?max_deliveries ?sink ?workload ?snapshot_every plan ~ids ~sched)
