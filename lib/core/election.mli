(** End-to-end election runs with verdict checking.

    A runner builds the network for one of the paper's algorithms,
    executes it under a scheduler, and returns a {!report} holding both
    the raw measurements (pulse counts by direction, deliveries,
    quiescence) and the correctness verdicts the theorems promise
    (unique max-ID leader, exact pulse totals, termination order,
    orientation consistency).  Tests assert on reports; benches print
    them. *)

type algorithm =
  | Algo1  (** Warm-up, oriented ring, stabilizing (Section 3.1). *)
  | Algo2  (** Oriented ring, quiescently terminating (Theorem 1). *)
  | Algo3 of Algo3.id_scheme
      (** Non-oriented ring, stabilizing (Prop. 15 / Theorem 2). *)
  | Algo3_resample
      (** Improved scheme plus Proposition 19 ID resampling. *)

val algorithm_name : algorithm -> string

type report = {
  algorithm : string;
  n : int;
  id_max : int;
  sends : int;  (** Measured message complexity. *)
  expected_sends : int;  (** The paper's closed form for this instance. *)
  sends_cw : int;
  sends_ccw : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  post_term_deliveries : int;
  causal_span : int;
      (** Asynchronous time: longest chain of causally dependent
          deliveries ({!Colring_engine.Network.causal_span}).  Not a
          paper quantity — reported because it is schedule-independent
          too and shows the algorithms pay for obliviousness in time as
          well as in messages. *)
  leader : int option;  (** The unique Leader node, if exactly one. *)
  leader_is_max : bool;
      (** Leader is the node assigned the (unique) maximal input ID. *)
  roles_ok : bool;
      (** Exactly one Leader and [n-1] Non-Leaders at the end. *)
  orientation_ok : bool option;
      (** For Algorithm 3: all claimed clockwise ports form one
          consistent direction around the ring.  [None] otherwise. *)
  termination_order_ok : bool option;
      (** For Algorithm 2: non-leaders terminate in counterclockwise
          ring order starting at the leader's counterclockwise
          neighbour, and the leader terminates last. *)
  final_ids : int array;
      (** IDs after the run (differs from the input only under
          resampling). *)
}

val ok : report -> bool
(** All verdicts that apply to the algorithm hold, totals match the
    closed form exactly, and the run was neither exhausted nor left
    pulses behind (plus full quiescent termination for Algorithm 2). *)

val report_fields : report -> (string * Colring_engine.Sink.value) list
(** The report as flat journal fields (declaration order, ending with
    ["ok"]); [None] verdicts appear as ["n/a"], a missing leader as
    ["none"].  This is what {!run} emits as its run_end record. *)

val run :
  ?seed:int ->
  ?max_deliveries:int ->
  ?sink:Colring_engine.Sink.t ->
  ?workload:string ->
  ?snapshot_every:int ->
  algorithm ->
  topo:Colring_engine.Topology.t ->
  ids:int array ->
  sched:Colring_engine.Scheduler.t ->
  report * Colring_engine.Network.pulse Colring_engine.Network.t
(** Runs to completion.  Algorithms 1 and 2 require an oriented
    topology ([Invalid_argument] otherwise); IDs must be positive and
    as unique as the algorithm demands (callers pick workloads from
    {!Ids}).

    [sink] (default {!Colring_engine.Sink.null}) observes the whole
    run: a run_start record (algorithm, n, id_max, seed, [workload] —
    default ["-"] — and scheduler name), every engine event, a counter
    snapshot every [snapshot_every] deliveries (default 10_000; the
    final snapshot at the last delivery is always emitted), and a
    run_end record carrying {!report_fields}.  The sink is flushed
    before returning.  (The pre-sink [?record_trace] switch was
    removed on the DESIGN.md §6 timeline: pass
    [~sink:(Colring_engine.Sink.memory ())] and read the buffer back
    with {!Colring_engine.Network.trace}.) *)

val run_report :
  ?seed:int ->
  ?max_deliveries:int ->
  ?sink:Colring_engine.Sink.t ->
  ?workload:string ->
  ?snapshot_every:int ->
  algorithm ->
  topo:Colring_engine.Topology.t ->
  ids:int array ->
  sched:Colring_engine.Scheduler.t ->
  report
(** {!run} without the network. *)

(** {2 Warm runs} *)

val run_warm :
  ?seed:int ->
  ?max_deliveries:int ->
  ?sink:Colring_engine.Sink.t ->
  ?workload:string ->
  ?snapshot_every:int ->
  Colring_engine.Network.pulse Colring_engine.Network.t ->
  algorithm ->
  ids:int array ->
  sched:Colring_engine.Scheduler.t ->
  report
(** [run_warm net algorithm ~ids ~sched] is {!run_report} on
    [Network.topology net], run on [net] after a
    {!Colring_engine.Network.reset} instead of on a fresh network:
    same arguments and defaults, same report, same sink events, byte
    for byte.  [net] may hold any earlier run, finished or abandoned
    by an exception. *)

(** {2 Pieces, exposed for tests and transport backends} *)

val program_of :
  algorithm ->
  id:int ->
  Colring_engine.Network.pulse Colring_engine.Network.program
(** The per-node program for [algorithm] with input [id] — exactly what
    {!run} instantiates at each node.  Transport backends use it to run
    the same node code outside the simulator (in a domain or a forked
    process). *)

val unique_leader : Colring_engine.Output.t array -> int option
(** {!Colring_engine.Output.unique_leader}. *)

val orientation_consistent :
  Colring_engine.Topology.t -> Colring_engine.Output.t array -> bool

val expected_termination_order :
  Colring_engine.Topology.t -> leader:int -> int list
(** CCW order from the leader's CCW neighbour, ending at the leader. *)
