(** Resizable circular buffers — the engine's allocation-free queues.

    [Queue.t] allocates a cons cell per [add]; on the simulator's hot
    path (tens of millions of deliveries per sweep) that dominates the
    GC load.  A [Ring.t] stores its elements in a flat array that grows
    by doubling, so pushes and pops allocate nothing once the buffer
    has reached its steady-state capacity.

    Popped slots are cleared: the type gives no dummy element, so the
    first element ever pushed is kept as the fill value and written
    over each popped slot.  A ring therefore retains at most that one
    element beyond its live contents — never an arbitrary popped
    value — and clearing is a plain store, so the hot path stays
    allocation-free. *)

type 'a t = {
  mutable elems : 'a array;  (** Length 0 or a power of two. *)
  mutable head : int;  (** Slot of the oldest element. *)
  mutable len : int;
  mutable filler : 'a array;
      (** One element, the fill value for popped slots; empty until
          the first push. *)
}
(** Concrete so that an engine's delivery path can test [len] and read
    the head element in place; every mutation goes through the
    functions below. *)

val create : unit -> 'a t
(** An empty ring; no storage is allocated until the first push. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail.  O(1) amortised, allocation-free when the
    buffer does not grow. *)

val peek : 'a t -> 'a
(** The oldest element.  Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element.  Raises [Invalid_argument]
    when empty. *)

val push_front : 'a t -> 'a -> unit
(** Insert at the head — the inverse of {!pop}.  Exists for the model
    checker's incremental undo. *)

val pop_back : 'a t -> 'a
(** Remove and return the newest element — the inverse of {!push}.
    Raises [Invalid_argument] when empty. *)

val to_array : 'a t -> 'a array
(** The buffered elements, oldest first.  Allocates; for invariant
    probes, not the hot path. *)
