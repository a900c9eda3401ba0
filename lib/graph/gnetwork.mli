(** The {!Colring_engine.Network} simulator on general multi-port
    topologies.  This is the same engine — delivery, undo, fingerprint,
    run loop, causal clocks — built from a {!Gtopology.t} instead of a
    ring.  Its node programs see the ring's
    {!Colring_engine.Network.api} record, with ports [0, degree).  A
    graph has no global direction, so [travels_cw] reports [None] for
    every link and direction-biased schedulers fall back to their
    tie-breakers.  A [?sink] observes every event through the same
    {!Colring_engine.Sink.t} surface (general-graph journals pass the
    same [colring journal] validator) and {!metrics} has the same
    counter schema.  A graph network is a
    {!Colring_engine.Network.core}, so the one model checker
    ([Colring_mc.Mc]) explores graph elections exactly as it explores
    rings. *)

type topology = Gtopology.t

type 'm api = 'm Colring_engine.Network.api = {
  node : int;
  degree : int;
  recv : int -> 'm option;
  recv_pulse : int -> bool;
  mailbox : int array;
  send : int -> 'm -> unit;
  set_output : Colring_engine.Output.t -> unit;
  terminate : unit -> unit;
  rng : unit -> Colring_stats.Rng.t;
}
(** The one node api of {!Colring_engine.Network}, re-exported: ports
    are [0, degree), and a bad one raises [Invalid_argument] naming the
    call, the node and the port. *)

type 'm program = 'm Colring_engine.Network.program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  state : Colring_engine.Network.state;
}

type 'm t = ('m, topology) Colring_engine.Network.core

val create :
  ?sink:Colring_engine.Sink.t ->
  ?seed:int ->
  Gtopology.t ->
  (int -> Colring_engine.Network.pulse program) ->
  Colring_engine.Network.pulse t
(** {!Colring_engine.Network.create} on a graph: a pulse network whose
    [sink] sees every event as on a ring, with [cw] always [false] (no
    global direction exists).  {!Colring_engine.Sink.memory} is
    ring-only — it raises on port indices above 1 — so use jsonl or
    custom sinks here. *)

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

include module type of Colring_engine.Network.Core
(** Warm reset, running, stepping, undo and observation: the engine
    core's functions, shared with rings. *)

val sends : 'm t -> int
val post_termination_deliveries : 'm t -> int
