(** Direct-style node programs via effect handlers.

    The paper writes its protocols as sequential code that blocks on
    [recv] (e.g. Algorithm 2 line 16 busy-waits for a pulse).  This
    module lets such code be written directly: a program body calls
    {!recv} / {!recv_any}, which suspend the node until the scheduler
    has delivered a suitable pulse, while sends go through the ordinary
    {!Network.api}.  Underneath, the body runs as a one-shot
    delimited continuation resumed on wake-ups, so it composes with the
    event-driven simulator without threads.

    Only pulse networks ([Network.pulse] payloads) are supported; the
    content-carrying baselines use plain event-driven programs.

    Telemetry: blocking bodies need no [?sink] of their own — every
    observable action ({!recv} consuming a pulse, sends, decisions,
    termination) goes through the wrapped {!Network.api}, so the
    {!Sink.t} passed to {!Network.create} sees a blocking program
    exactly as it sees an event-driven one. *)

val recv : int -> unit
(** Block until one pulse can be consumed from the given local port
    (in [0, degree), as {!Network.api} numbers them), then consume
    it.  Must be called from inside a {!make} body. *)

val recv_any : unit -> int
(** Block until any port has a pulse; consume it and return the port
    it came from.  When several ports have pulses, the lowest wins. *)

val make :
  ?inspect:(unit -> (string * int) list) ->
  (Network.pulse Network.api -> unit) ->
  Network.pulse Network.program
(** [make body] wraps a blocking body as an event-driven program.  The
    body runs until it blocks on {!recv}/{!recv_any} or returns; a body
    that returns without calling [api.terminate] simply goes silent
    (quiescent stabilization), one that loops forever stays receptive. *)
