(** The asynchronous fully-defective network simulator.

    Nodes are event-driven (Section 2): a node acts once at start-up
    and afterwards only when the scheduler delivers a pulse to it.  The
    simulator keeps, per directed link, a FIFO queue of in-flight
    messages, and per node and local port a mailbox of delivered but
    not yet consumed messages — the paper's "incoming queue" that
    [recvCW]/[recvCCW] poll.  A {!Scheduler.t} decides which in-flight
    message moves into a mailbox next; after each delivery the
    receiving node's program is woken and polls its mailboxes.

    What a message carries is fixed when the network is created, by a
    {!carry} witness.  A pulse network ({!create}, payload {!pulse})
    keeps per link only the envelope stamps (send sequence number,
    activation batch, causal depth) and per mailbox only a count: in
    the fully-defective model that is all there is to see.  A payload
    network ({!create_with} [~carry:Payloads]) keeps the same stamps
    and counts plus the payload values, for the classic baselines that
    send real message contents.  Both run the same delivery, undo and
    run code.  Nothing in the simulator lets a scheduler or a program
    observe anything the model forbids.

    The same simulator runs general graphs: [Colring_graph.Gnetwork]
    is this engine over a [Gtopology.t], whose node programs see
    {!Graph.api} instead of {!api}.  A ring is the degree-2 case, so
    every function in {!Core} works on either. *)

type ('m, 'api, 'topo) core
(** A network with payload ['m], whose programs see ['api], built from
    a ['topo]. *)

type topology = Topology.t

(** {2 Pulses and payloads} *)

type pulse = unit
(** The content of a message in the fully-defective model: nothing. *)

val pulse : pulse

type _ carry =
  | Pulses : pulse carry
      (** Stamps and counts only: the engine moves integers, and a
          [recv] that succeeds returns one shared [Some pulse]. *)
  | Payloads : 'm carry
      (** Stamps and counts plus a payload slab per channel and per
          mailbox.  Any payload type, [unit] included. *)
(** What a network's messages carry, chosen once at creation. *)

(** {2 Node programs} *)

type 'm api = {
  node : int;  (** This node's index; programs must not use it as an ID. *)
  recv : Port.t -> 'm option;
      (** Consume the oldest mailbox entry of a local port, if any —
          the paper's [recv*()] (returns 0/1 there). *)
  recv_pulse : Port.t -> bool;
      (** Like {!field-recv} but discards the payload, returning only
          whether a pulse was consumed.  This is the whole [recv*()]
          observable for content-oblivious algorithms ([pulse = unit]).
          It never allocates; [recv] allocates a [Some] per message on
          a payload network only. *)
  mailbox : int array;
      (** This node's own mailbox lengths by [Port.index]: the engine's
          (or live backend's) counts, read-only for programs (lint rule
          [mailbox-write]).  Check [api.mailbox.(i) > 0] before a
          [recv], and a poll of an empty port makes no call. *)
  send : Port.t -> 'm -> unit;
      (** Emit through a local port.  Raises after {!field-terminate}. *)
  set_output : Output.t -> unit;
      (** Revise this node's output (allowed until termination). *)
  terminate : unit -> unit;
      (** Enter the terminating state: all later incoming pulses are
          ignored (and counted as quiescence violations). *)
  rng : unit -> Colring_stats.Rng.t;
      (** This node's {!node_stream} under the run's [seed], split on
          the program's first read and the same on every later one. *)
}

type state =
  | Regs of { names : string array; cells : int array }
      (** A register file: [cells] holds the program's whole mutable
          state as ints, and the program reads and writes it in place.
          The first [Array.length names] cells are the program's view,
          named in order ({!Core.inspect}, {!Core.fingerprint}); any
          later cells are saved and restored by undo but not shown. *)
  | Opaque of (unit -> (string * int) list)
      (** State that is not ints (effect continuations, a phase built at
          run time, random draws), seen only through these named
          counters.  Such a program is replay-only: a network holding
          one is not {!Core.undo_capable}. *)
(** What a node program exposes of its state. *)

type 'api prog = {
  start : 'api -> unit;  (** The one initial activation. *)
  wake : 'api -> unit;
      (** Called after every delivery to this node; must poll mailboxes
          to a fixpoint and return (never block). *)
  state : state;
}
(** A node program over the api record ['api] its node sees; rings and
    graphs share the record. *)

val counters : state -> (string * int) list
(** The named view: [Regs] pairs [names] with the first cells, [Opaque]
    calls its function. *)

type 'm program = 'm api prog

type 'm t = ('m, 'm api, Topology.t) core

val silent_program : 'api prog
(** A program that never sends, consumes or decides (an empty register
    file, since it holds no state). *)

val node_stream : seed:int -> int -> Colring_stats.Rng.t
(** [node_stream ~seed v], [Rng.split_at (Rng.create ~seed) v], is the
    {!field-rng} of node [v] in a run of [seed], on every backend. *)

(** {2 Construction} *)

val create :
  ?sink:Sink.t -> ?seed:int -> Topology.t -> (int -> pulse program) -> pulse t
(** [create topo make_program] builds a pulse network: it
    instantiates [make_program v] for every node [v] and runs each
    program's [start].  [seed] (default 0) derives every node's
    private {!field-rng} stream, on the node's first read.

    [sink] observes every event of the run (default {!Sink.null}).
    The engine counts into its own {!Metrics.t} inline, then calls
    [sink]'s callback for the same event, so {!metrics} and what the
    sink saw always agree.  Every sink other than {!Sink.null} gets
    every event, even one whose [enabled] is [false]; [enabled] gates
    only counter snapshots (and makes the network not
    {!undo_capable}).  With the default null sink the delivery path
    makes no sink call and allocates nothing.
    (The pre-sink [?record_trace] switch was removed on the DESIGN.md
    §6 timeline: pass [~sink:(Sink.memory ())] and read the buffer
    back with {!trace}.) *)

val create_with :
  carry:'m carry ->
  ?sink:Sink.t ->
  ?seed:int ->
  Topology.t ->
  (int -> 'm program) ->
  'm t
(** {!create} with the carriage made explicit: [create] is
    [create_with ~carry:Pulses].  The classic baselines, whose
    messages have contents, use [~carry:Payloads]; so do tests that
    check a [unit] program behaves the same on either carriage. *)

(** The api and program records of graph node programs: ports are
    integers in [0, degree).  [Colring_graph.Gnetwork] re-exports
    them. *)
module Graph : sig
  type 'm api = {
    node : int;
    degree : int;
    recv : int -> 'm option;  (** Consume from a port's mailbox. *)
    mailbox : int array;
        (** By port, length [degree]; as the ring api's [mailbox]. *)
    send : int -> 'm -> unit;
    set_output : Output.t -> unit;
    terminate : unit -> unit;
    rng : unit -> Colring_stats.Rng.t;
  }
  (** [recv] and [send] raise [Invalid_argument] (naming [Gnetwork]) on
      a port outside [0, degree). *)

  type 'm program = 'm api prog
end

val create_graph :
  carry:'m carry ->
  ?sink:Sink.t ->
  ?seed:int ->
  'topo ->
  dst_node:int array ->
  dst_port:int array ->
  first_link:int array ->
  degree:int array ->
  (int -> 'm Graph.program) ->
  ('m, 'm Graph.api, 'topo) core
(** {!create} for a general graph given by its link tables: link [l]
    arrives at port [dst_port.(l)] of node [dst_node.(l)], and node
    [v]'s port [p] (for [p < degree.(v)]) sends on link
    [first_link.(v) + p].  Every link's direction is [None].
    [Colring_graph.Gnetwork.create] derives the tables from a
    [Gtopology.t]. *)

type run_result = {
  sends : int;  (** Total pulses sent — the paper's message complexity. *)
  deliveries : int;
  quiescent : bool;
      (** Nothing in flight and every mailbox empty when the run ended. *)
  all_terminated : bool;
  exhausted : bool;  (** Stopped by [max_deliveries] instead of quiescence. *)
  termination_order : int list;  (** Chronological. *)
}
(** The outcome of {!Core.run}, on a ring or a graph. *)

type 'm undo
(** A delivery's undo record (see {!Core.force_step_undo}). *)

(** {2 The shared core}

    Everything in {!Core} works on a network of either engine: a
    ring's ['m t] here, or a [Colring_graph.Gnetwork.t], which
    includes {!Core}.  For rings it is included below. *)

module Core : sig
  val reset :
    ?sink:Sink.t ->
    ?seed:int ->
    (pulse, 'api, _) core ->
    (int -> 'api prog) ->
    unit
  (** [reset t make_program] reuses the pulse network [t], a ring or a
      graph, for a new run on the same topology: afterwards [t] is what
      {!create} (or [Colring_graph.Gnetwork.create]) would have
      built with these arguments, and a sink sees the same events from
      here on.  Raises [Invalid_argument] on a payload network
      ({!create_with} [~carry:Payloads]).  It puts back every piece of
      per-run state — channel stamp queues (their buffers keep the
      capacity they grew to), mailboxes, outputs, termination flags and
      order, {!metrics}, sequence and batch numbers, causal clocks, the
      non-empty-link set, the undo log, the node streams (split again
      from the new [seed] on first read) — instantiates [make_program v]
      for every node, then runs the start-up activations in node order,
      as [create] does.  {!undo_capable} is recomputed for the new
      programs and sink.

      A reset core is clean whatever state the previous run left it in:
      finished, exhausted, or abandoned mid-run or mid-start because a
      program or scheduler raised. *)

  (** {2 Execution} *)

  val run :
    ?max_deliveries:int ->
    ?snapshot_every:int ->
    ?probe:(step:int -> unit) ->
    (_, _, _) core ->
    Scheduler.t ->
    run_result
  (** Deliver until no message is in flight (or [max_deliveries] is hit,
      default [50_000_000]).  An exceeded budget is reported as
      {!run_result.exhausted}, never raised.  [probe] runs after every
      delivery-and-wake, letting tests assert invariants at each
      reachable configuration.
      [snapshot_every] (default 0 = off) emits a {!Sink.t.on_snapshot}
      counter record every that many deliveries — only when a live sink
      was passed at {!create}, so the default path never allocates the
      counter list. *)

  val step : (_, _, _) core -> Scheduler.t -> bool
  (** Deliver exactly one message; [false] when nothing was in flight. *)

  val force_step : (_, _, _) core -> link:int -> unit
  (** Deliver the oldest message of one specific link (bypassing any
      scheduler); raises [Invalid_argument] if the link is empty.  Used
      by the model checker. *)

  val enabled_count : (_, _, _) core -> int
  (** Number of links with messages in flight — the branching factor of
      the asynchronous adversary at the current state.  O(1). *)

  val enabled_link : (_, _, _) core -> after:int -> int
  (** [enabled_link t ~after] is the smallest non-empty link strictly
      greater than [after], or [-1] when none; start with [~after:(-1)]
      and feed each result back to enumerate the enabled set in
      ascending link order without allocating.  O({!enabled_count}) per
      call. *)

  val channel_length : (_, _, _) core -> link:int -> int
  val channel_payloads : ('m, _, _) core -> link:int -> 'm array
  (** In-flight payloads of one directed link, oldest first (on a pulse
      network, one [pulse] per envelope).  Allocates; for invariant
      probes ({!Colring_mc.Inductive}), not the hot path. *)

  (** {2 Incremental undo}

      The model checker's backtracking: [force_step_undo] is
      {!force_step} plus a record of everything the delivery mutated;
      [undo_step] restores the pre-delivery state exactly, including
      metrics, clocks, mailbox/channel contents and the destination
      program's state (a copy of its [Regs] cells, blitted back).
      Records must be undone in LIFO order.  Only legal on an
      {!undo_capable} network: every program is [Regs] and no user sink
      observes the run
      (events cannot be unemitted); programs must also not consume
      [rng] randomness, which is not rolled back — the model checker
      requires deterministic programs anyway. *)

  val undo_capable : (_, _, _) core -> bool

  val force_step_undo : ('m, _, _) core -> link:int -> 'm undo
  (** Raises [Invalid_argument] when the link is empty or the network is
      not undo-capable. *)

  val undo_step : ('m, _, _) core -> 'm undo -> unit

  (** {2 Observation} *)

  val topology : (_, _, 'topo) core -> 'topo
  val size : (_, _, _) core -> int

  val num_links : (_, _, _) core -> int
  (** Directed links, from the core's own link tables. *)

  val link_dst_node : (_, _, _) core -> int -> int
  (** The node a directed link delivers to. *)

  val output : (_, _, _) core -> int -> Output.t
  val outputs : (_, _, _) core -> Output.t array
  val terminated : (_, _, _) core -> int -> bool
  val all_terminated : (_, _, _) core -> bool
  val termination_order : (_, _, _) core -> int list
  val inspect : (_, _, _) core -> int -> (string * int) list
  (** Node [v]'s named view ({!counters} of its program's state). *)

  val inspect_counter : (_, _, _) core -> int -> string -> int
  (** Raises [Not_found] for an unknown counter name. *)

  val registers : (_, _, _) core -> int -> int array option
  (** A copy of node [v]'s cells, view and hidden, what {!undo_step}
      puts back; [None] for an [Opaque] program. *)

  val metrics : (_, _, _) core -> Metrics.t

  val fingerprint : (_, _, _) core -> string
  (** Canonical observable-state string: channel and mailbox depths,
      termination flags, outputs and each program's view (never a
      [Regs] program's hidden cells).  Two states print equal iff no
      monitor can tell them apart. *)

  val trace : (_, _, _) core -> Trace.t option
  (** The buffer of the memory sink attached to this network via [?sink],
      if any. *)

  val in_flight : (_, _, _) core -> int
  (** Messages in channels (sent, not yet delivered). *)

  val mailbox_backlog : (_, _, _) core -> int
  (** Messages delivered but not yet consumed, over all nodes. *)

  val is_quiescent : (_, _, _) core -> bool
  (** [in_flight = 0] and [mailbox_backlog = 0]. *)

  val causal_span : (_, _, _) core -> int
  (** The asynchronous time of the run so far: the longest chain of
      causally dependent deliveries, counting each message as one time
      unit (a pulse sent by an activation carries depth one more than the
      deepest pulse its node has received).  The paper analyses message
      complexity only; this exposes the orthogonal time dimension. *)
end

include module type of Core

(** {2 Ring-only} *)

val mailbox_length : 'm t -> node:int -> port:Port.t -> int

val mailbox_payloads : 'm t -> node:int -> port:Port.t -> 'm array
(** Delivered-but-unconsumed payloads of one mailbox, oldest first (on
    a pulse network, one [pulse] per pending delivery). *)

val inject : 'm t -> node:int -> port:Port.t -> 'm -> unit
(** Put a message in flight on [node]'s outgoing channel at [port] as
    if the node had sent it — a deliberate *violation* of the model
    (Section 2: "pulses cannot be dropped or injected by the channel").
    Exists only so tests and benches can demonstrate that the
    no-injection assumption is load-bearing: a single spurious pulse
    breaks Algorithm 2's counting.  Injected messages go through the
    same enqueue path as {!field-send}: they are counted in
    {!Metrics.sends} and stamped with the current batch number, exactly
    as if sent by the most recent activation. *)
