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
  ports : int;  (** Per-node port stride of [delivered] and [consumed]. *)
  sends_by_node : int array;
  sends_by_link : int array;
  delivered : int array;  (** Indexed [node * ports + port_index]. *)
  consumed : int array;  (** Same layout as [delivered]. *)
}
(** Concrete so that an engine can count inline: {!Network} writes
    these fields directly on its delivery path (one store each instead
    of an out-of-line [on_*] call), while {!Sink.counters} drives the
    same record through the [on_*] functions below.  Either way the
    field updates are exactly those of the [on_*] functions; readers
    should use the accessors. *)

val create : ?ports_per_node:int -> n_nodes:int -> n_links:int -> unit -> t
(** [ports_per_node] sizes the per-port counter arrays (default [2],
    the ring stride; general-graph engines pass their maximum degree).
    Port indices at or above the stride are out of bounds. *)

val on_send : t -> link:int -> node:int -> cw:bool -> unit
val on_deliver : t -> node:int -> port_index:int -> unit
val on_consume : t -> node:int -> port_index:int -> unit
val on_post_termination_delivery : t -> unit
val on_wake : t -> unit

(** Exact inverses of the [on_*] updates, one per journalled event —
    the engines' [undo_step] uses them to roll counters back without
    snapshotting the whole block. *)

val undo_send : t -> link:int -> node:int -> cw:bool -> unit
val undo_deliver : t -> node:int -> port_index:int -> unit
val undo_consume : t -> node:int -> port_index:int -> unit
val undo_post_termination_delivery : t -> unit
val undo_wake : t -> unit

val sends : t -> int
(** Total pulses sent — the paper's message complexity. *)

val sends_cw : t -> int
(** Pulses sent that travel clockwise (ground-truth direction). *)

val sends_ccw : t -> int

val deliveries : t -> int
val consumes : t -> int
val wakes : t -> int

val sends_by : t -> node:int -> int
val sends_on_link : t -> link:int -> int
val delivered_to : t -> node:int -> port_index:int -> int
val consumed_by : t -> node:int -> port_index:int -> int

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
