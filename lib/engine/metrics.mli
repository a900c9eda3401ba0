(** Engine-side counters.

    These are maintained by the simulator independently of whatever
    counters the node programs keep (the paper's ρ and σ), so tests can
    cross-check the two.  Message complexity in the paper counts *sent*
    pulses; {!sends} is the number the benches report. *)

type t = {
  mutable sends : int;
  mutable sends_cw : int;
  mutable deliveries : int;
  mutable consumes : int;
  mutable wakes : int;
  mutable post_term : int;
}
(** Concrete so that an engine can count inline: {!Network} writes
    these fields directly on its delivery path (one store each instead
    of an out-of-line [on_*] call) and decrements them in its undo,
    while {!Sink.counters} drives the same record through the [on_*]
    functions below.  Either way the field updates are exactly those
    of the [on_*] functions; readers should use the accessors.

    Only whole-run scalars are kept.  Per-node, per-link and per-port
    tallies are not: nothing outside the tests read them, and they
    cost four stores per delivery.  A test that needs one counts it
    from a recording sink ({!Sink.memory} on a ring). *)

val create : unit -> t
(** All counters at zero. *)

val reset : t -> unit
(** Every counter back to zero (a warm {!Network.reset}). *)

val on_send : t -> cw:bool -> unit
val on_deliver : t -> unit
val on_consume : t -> unit
val on_post_termination_delivery : t -> unit
val on_wake : t -> unit

val sends : t -> int
(** Total pulses sent — the paper's message complexity. *)

val sends_cw : t -> int
(** Pulses sent that travel clockwise (ground-truth direction). *)

val sends_ccw : t -> int

val deliveries : t -> int
val consumes : t -> int
val wakes : t -> int

val post_termination_deliveries : t -> int
(** Number of pulses delivered to already-terminated nodes.  Zero iff
    termination was quiescent in the paper's sense. *)

val to_assoc : t -> (string * int) list
(** All scalar counters by name, for machine-readable reports and for
    whole-run equality checks in determinism tests.

    The key set is a frozen, documented schema — journal snapshots and
    external post-processing depend on it.  Keys are snake_case, in
    alphabetical order, exactly:
    [consumes], [deliveries], [post_termination_deliveries], [sends],
    [sends_ccw], [sends_cw], [wakes].
    Extending the schema means adding a key in order and updating the
    pinning test; never rename or reorder. *)

val pp : Format.formatter -> t -> unit
