(** The {!Colring_engine.Network} simulator on general multi-port
    topologies.  This is the same engine — delivery, undo, fingerprint,
    run loop, causal clocks — built from a {!Gtopology.t} instead of a
    ring; only the api differs: ports are integers in [0, degree), and
    there is no global direction, so [travels_cw] reports [None] for
    every link and direction-biased schedulers fall back to their
    tie-breakers.  A [?sink] observes every event through the same
    {!Colring_engine.Sink.t} surface (general-graph journals pass the
    same [colring journal] validator) and {!metrics} has the same
    counter schema.  A graph network is a
    {!Colring_engine.Network.core}, so the one model checker
    ([Colring_mc.Mc]) explores graph elections exactly as it explores
    rings. *)

type topology = Gtopology.t

type 'm api = 'm Colring_engine.Network.Graph.api = {
  node : int;
  degree : int;
  recv : int -> 'm option;  (** Consume from a port's mailbox. *)
  mailbox : int array;
      (** This node's mailbox lengths by port, read-only: check
          [api.mailbox.(p) > 0] before a [recv]. *)
  send : int -> 'm -> unit;
  set_output : Colring_engine.Output.t -> unit;
  terminate : unit -> unit;
  rng : unit -> Colring_stats.Rng.t;
}
(** A node's handle on the network.  [recv] and [send] take a local
    port in [0, degree) and raise [Invalid_argument] (naming
    [Gnetwork]) on any other; [rng] is as the ring
    {!Colring_engine.Network.api}'s. *)

type 'api prog = 'api Colring_engine.Network.prog = {
  start : 'api -> unit;
  wake : 'api -> unit;
  inspect : unit -> (string * int) list;
  snap : Colring_engine.Network.snapshot option;
      (** Program-state codec for the model checker's incremental undo
          (see {!Colring_engine.Network.program}).  [None] opts out. *)
}

type 'm program = 'm api prog

type 'm t = ('m, 'm api, topology) Colring_engine.Network.core

val create :
  ?sink:Colring_engine.Sink.t ->
  ?seed:int ->
  Gtopology.t ->
  (int -> Colring_engine.Network.pulse program) ->
  Colring_engine.Network.pulse t
(** A pulse network (see {!Colring_engine.Network.carry}): stamps and
    mailbox counts only, and [recv] returns one shared [Some ()].
    [sink] observes every event of the run (default
    {!Colring_engine.Sink.null}).  The engine counts into its own
    {!metrics} inline and then calls [sink] directly, so the counters
    move before the sink sees each event, in the same order as the ring
    engine; any sink other than {!Colring_engine.Sink.null} sees every
    event, even one whose [enabled] is [false].  Ports reach the sink
    as this engine's native integer port numbers; [cw] is always
    [false] (no global direction exists).
    {!Colring_engine.Sink.memory} is ring-only — it raises on port
    indices above 1 — so use jsonl or custom sinks here. *)

val create_with :
  carry:'m Colring_engine.Network.carry ->
  ?sink:Colring_engine.Sink.t ->
  ?seed:int ->
  Gtopology.t ->
  (int -> 'm program) ->
  'm t
(** {!create} with the carriage explicit ([create] is
    [create_with ~carry:Pulses]); [~carry:Payloads] keeps payload
    values too. *)

type run_result = Colring_engine.Network.run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}
(** The core's outcome record, so graph and ring results interchange. *)

type 'm undo = 'm Colring_engine.Network.undo

include module type of Colring_engine.Network.Core
(** Warm reset, running, stepping, undo and observation: the engine
    core's functions, shared with rings. *)

val sends : 'm t -> int
val post_termination_deliveries : 'm t -> int
