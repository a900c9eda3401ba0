(** Discrete-event simulator for general multi-port topologies — the
    {!Colring_engine.Network} model lifted from rings to arbitrary
    graphs.  Shares the scheduler abstraction (direction bias
    degenerates: on a general graph there is no global direction, so
    [travels_cw] reports [None] for every link and direction-biased
    schedulers fall back to their tie-breakers).

    Since the unified-API refactor this engine has full telemetry
    parity with the ring engine: a [?sink] observes every event and
    lifecycle record through the same {!Colring_engine.Sink.t} surface
    (so general-graph journals pass the same [colring journal]
    validator), {!metrics} aggregates the same counter schema, and the
    module satisfies {!Colring_engine.Engine_intf.NETWORK} (sealed by
    {!Unified.Graph_network}), which is what lets the model checker
    functor explore graph elections.  Still deliberately leaner than
    the ring engine where capabilities are ring-specific: no traces,
    diagrams, blocking layer, injection or causal clocks. *)

type 'm t

type 'm api = {
  node : int;
  degree : int;
  recv : int -> 'm option;  (** Consume from a port's mailbox. *)
  pending : int -> int;
  send : int -> 'm -> unit;
  set_output : Colring_engine.Output.t -> unit;
  terminate : unit -> unit;
  rng : Colring_stats.Rng.t;
}
(** A node's handle on the network.  [recv], [pending] and [send] take
    a local port in [0, degree) and raise [Invalid_argument] (naming
    [Gnetwork]) on any other. *)

type 'm program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  inspect : unit -> (string * int) list;
  snap : Colring_engine.Engine_intf.snapshot option;
      (** Program-state codec for the model checker's incremental undo
          (see {!Colring_engine.Network.program}).  [None] opts out. *)
}

val create :
  ?sink:Colring_engine.Sink.t ->
  ?seed:int ->
  Gtopology.t ->
  (int -> 'm program) ->
  'm t
(** [sink] observes every event of the run (default
    {!Colring_engine.Sink.null}).  The engine counts into its own
    {!metrics} inline and then calls [sink] directly, so the counters
    move before the sink sees each event, in the same order as the ring
    engine; any sink other than {!Colring_engine.Sink.null} sees every
    event, even one whose [enabled] is [false].  Ports reach the sink
    as this engine's native integer port numbers; [cw] is always
    [false] (no global direction exists).
    {!Colring_engine.Sink.memory} is ring-only — it raises on port
    indices above 1 — so use jsonl or custom sinks here. *)

type run_result = Colring_engine.Engine_intf.run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}
(** Re-export of the shared outcome record, so graph and ring results
    interchange. *)

val run :
  ?max_deliveries:int ->
  ?snapshot_every:int ->
  ?probe:(step:int -> unit) ->
  'm t ->
  Colring_engine.Scheduler.t ->
  run_result
(** Deliver until no message is in flight or [max_deliveries] is hit;
    the budget semantics are those of {!Colring_engine.Network.run}
    (same default of [50_000_000]): an exceeded budget is reported as
    [exhausted = true], never raised and never silently dropped.  The
    one intentional exception in the codebase is
    [Colring_fastsim.Driver.run], whose closed-form resolution cannot
    stop mid-pulse and therefore treats a too-small budget as a
    contract violation ([Invalid_argument]).  [snapshot_every] and
    [probe] behave as in the ring engine: periodic counter snapshots
    to a live sink, and a per-delivery invariant hook. *)

val step : 'm t -> Colring_engine.Scheduler.t -> bool
(** Deliver exactly one message; [false] when nothing was in flight. *)

val force_step : 'm t -> link:int -> unit
(** Deliver the oldest message of one specific link (bypassing any
    scheduler); raises [Invalid_argument] if the link is empty.  The
    model checker's replay primitive. *)

val enabled_count : 'm t -> int
(** Number of links with messages in flight.  O(1). *)

val enabled_link : 'm t -> after:int -> int
(** Smallest non-empty link strictly greater than [after], or [-1] —
    the allocation-free enabled-set enumerator, as in the ring
    engine. *)

val channel_length : 'm t -> link:int -> int
val mailbox_length : 'm t -> node:int -> port:int -> int

val channel_payloads : 'm t -> link:int -> 'm array
(** In-flight payloads of one directed link, oldest first.  Allocates;
    for invariant probes, not the hot path. *)

val mailbox_payloads : 'm t -> node:int -> port:int -> 'm array
(** Delivered-but-unconsumed payloads of one mailbox, oldest first. *)

(** {2 Incremental undo}

    Same contract as {!Colring_engine.Network}: [force_step_undo] is
    {!force_step} plus an undo record; [undo_step] restores the
    pre-delivery state exactly (LIFO order required).  Only legal on an
    {!undo_capable} network — every program carries a [snap] codec and
    no user sink observes the run. *)

type 'm undo

val undo_capable : 'm t -> bool

val force_step_undo : 'm t -> link:int -> 'm undo
(** Raises [Invalid_argument] when the link is empty or the network is
    not undo-capable. *)

val undo_step : 'm t -> 'm undo -> unit

val fingerprint : 'm t -> string
(** Canonical observable-state string, same shape as
    {!Colring_engine.Network.fingerprint} generalised to arbitrary
    degree — the model checker's dedup key. *)

val topology : 'm t -> Gtopology.t
val size : 'm t -> int
val num_links : Gtopology.t -> int
val link_dst_node : Gtopology.t -> int -> int
val output : 'm t -> int -> Colring_engine.Output.t
val outputs : 'm t -> Colring_engine.Output.t array
val terminated : 'm t -> int -> bool
val all_terminated : 'm t -> bool
val termination_order : 'm t -> int list
val inspect : 'm t -> int -> (string * int) list
val inspect_counter : 'm t -> int -> string -> int
val metrics : 'm t -> Colring_engine.Metrics.t
val sends : 'm t -> int
val in_flight : 'm t -> int
val mailbox_backlog : 'm t -> int
val is_quiescent : 'm t -> bool
val post_termination_deliveries : 'm t -> int
