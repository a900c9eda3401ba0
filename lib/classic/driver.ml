open Colring_engine

type report = {
  algorithm : string;
  n : int;
  messages : int;
  deliveries : int;
  leader : int option;
  leader_is_max : bool;
  roles_ok : bool;
  all_terminated : bool;
  quiescent : bool;
  post_term_drops : int;
  exhausted : bool;
  causal_span : int;
}

let ok r =
  r.leader <> None && r.leader_is_max && r.roles_ok && r.all_terminated
  && r.quiescent && not r.exhausted

let report_fields r =
  let open Sink in
  [
    ("algorithm", String r.algorithm);
    ("n", Int r.n);
    ("messages", Int r.messages);
    ("deliveries", Int r.deliveries);
    ("leader", match r.leader with Some v -> Int v | None -> String "none");
    ("leader_is_max", Bool r.leader_is_max);
    ("roles_ok", Bool r.roles_ok);
    ("all_terminated", Bool r.all_terminated);
    ("quiescent", Bool r.quiescent);
    ("post_term_drops", Int r.post_term_drops);
    ("exhausted", Bool r.exhausted);
    ("causal_span", Int r.causal_span);
    ("ok", Bool (ok r));
  ]

let run ?(seed = 0) ?max_deliveries ?(sink = Sink.null)
    ?(snapshot_every = 10_000) ~name ?expect_max make_program ~topo ~sched =
  if sink.Sink.enabled then
    sink.Sink.on_run_start
      [
        ("algorithm", Sink.String name);
        ("n", Sink.Int (Topology.n topo));
        ("seed", Sink.Int seed);
        ("workload", Sink.String "-");
        ("scheduler", Sink.String sched.Scheduler.name);
      ];
  let net =
    Network.create_with ~carry:Network.Payloads ~sink ~seed topo make_program
  in
  let result = Network.run ?max_deliveries ~snapshot_every net sched in
  let outputs = Network.outputs net in
  let leader = Output.unique_leader outputs in
  let leader_is_max =
    match (leader, expect_max) with
    | Some v, Some ids ->
        Array.for_all (fun id -> id <= ids.(v)) ids
    | Some _, None -> true
    | None, _ -> false
  in
  let roles_ok =
    leader <> None
    && Array.for_all
         (fun (o : Output.t) ->
           Output.equal_role o.role Output.Leader
           || Output.equal_role o.role Output.Non_leader)
         outputs
  in
  let report =
    {
      algorithm = name;
      n = Topology.n topo;
      messages = result.sends;
      deliveries = result.deliveries;
      leader;
      leader_is_max;
      roles_ok;
      all_terminated = result.all_terminated;
      quiescent = result.quiescent;
      post_term_drops =
        Metrics.post_termination_deliveries (Network.metrics net);
      exhausted = result.exhausted;
      causal_span = Network.causal_span net;
    }
  in
  if sink.Sink.enabled then begin
    sink.Sink.on_snapshot ~step:result.deliveries
      (Metrics.to_assoc (Network.metrics net));
    sink.Sink.on_run_end (report_fields report);
    sink.Sink.flush ()
  end;
  report
