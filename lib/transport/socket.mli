(** Real-process transport backend: one forked child per node, pulse
    framing over local sockets.

    The wire format is the content-oblivious model made concrete: a
    pulse is a single byte whose only information is the port it
    crosses.  A single-threaded coordinator owns the channels: it
    reads each child's sent pulses, holds every pulse for its
    {!Colring_engine.Transport.delay_us} microseconds of injected
    latency/jitter, forwards it to the destination child, and records
    the forwarding order as the run's schedule.  Every activation is
    bounded by an explicit ack byte, so the coordinator observes a
    send only after recording the delivery that caused it — the
    recorded schedule is causally consistent and replays exactly on
    the simulator (same-link reordering under jitter is unobservable:
    pulses are indistinguishable).

    Children derive their node RNG exactly as the simulator does and
    exit via [Unix._exit]; the coordinator enforces a wall-clock
    deadline and SIGKILLs the ring rather than hang. *)

val run :
  ?seed:int ->
  ?max_deliveries:int ->
  ?faults:Colring_engine.Transport.faults ->
  ?tcp:bool ->
  Colring_engine.Topology.t ->
  (int -> Colring_engine.Network.pulse Colring_engine.Network.program) ->
  Colring_engine.Transport.trace
(** [tcp:false] (default) wires each child over an [AF_UNIX]
    socketpair; [tcp:true] runs the ring over loopback TCP
    ([127.0.0.1], [TCP_NODELAY]) with an id-byte handshake.
    A run that takes longer than 120 s of wall-clock time has its
    children killed and raises [Failure].
    Node programs that raise are reported by an error opcode and
    surface as [Failure "… a node program raised"]; a child that dies
    mid-run surfaces as [Failure "… node v exited early"]; either way
    every child is reaped first.  The transport
    serves the election algorithms: [Output.values] lists are not
    carried by the final report. *)

val transport : ?tcp:bool -> unit -> Colring_engine.Transport.t
(** {!run} as a {!Colring_engine.Transport.t}, named ["socket"] or
    ["socket-tcp"]. *)
