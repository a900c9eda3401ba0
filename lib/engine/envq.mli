(** Per-link envelope queues, struct-of-arrays.

    The seed engine boxed every in-flight pulse in an
    [{ payload; seq; batch; depth }] record inside a [Queue.t] — two
    heap blocks per send.  An [Envq.t] keeps the payloads in one
    circular array and the three integer stamps in a parallel flat
    [int array] (stride 3), so steady-state sends and deliveries
    allocate nothing and the stamps of the head envelope can be read
    without materialising it.

    Capacity grows by doubling; like {!Ring}, popped payload slots are
    cleared with the first payload ever pushed, so a queue retains at
    most that one payload beyond its live contents. *)

type 'm t = {
  mutable payloads : 'm array;  (** Length 0 or a power of two. *)
  mutable meta : int array;
      (** Stride 3 per payload slot: seq, batch, depth. *)
  mutable head : int;  (** Slot of the oldest envelope. *)
  mutable len : int;
  mutable filler : 'm array;
      (** The value written over popped payload slots (see {!Ring.t}). *)
}
(** Concrete so that an engine's delivery path can read the head
    envelope's stamps ([meta.(3 * head)], [+ 1], [+ 2]) and test
    [len] in place; every mutation goes through the functions below. *)

val create : unit -> 'm t
(** An empty queue; no storage is allocated until the first push. *)

val length : 'm t -> int
val is_empty : 'm t -> bool

val push : 'm t -> 'm -> seq:int -> batch:int -> depth:int -> unit
(** Append an envelope at the tail.  O(1) amortised, allocation-free
    when the buffer does not grow. *)

val head_seq : 'm t -> int
val head_batch : 'm t -> int
val head_depth : 'm t -> int
(** Stamps of the oldest envelope.  Raise [Invalid_argument] when
    empty. *)

val pop : 'm t -> 'm
(** Remove the oldest envelope and return its payload.  Read the
    [head_*] stamps first if they are needed.  Raises
    [Invalid_argument] when empty. *)

val peek : 'm t -> 'm
(** Payload of the oldest envelope without removing it.  Raises
    [Invalid_argument] when empty. *)

val push_front : 'm t -> 'm -> seq:int -> batch:int -> depth:int -> unit
(** Re-file an envelope at the head — the inverse of {!pop} with the
    original stamps.  Exists for the model checker's incremental undo;
    FIFO order of the untouched contents is preserved. *)

val pop_back : 'm t -> 'm
(** Remove and return the newest envelope's payload — the inverse of
    {!push}.  Raises [Invalid_argument] when empty. *)

val to_payload_array : 'm t -> 'm array
(** The queued payloads, oldest first.  Allocates; for invariant
    probes, not the hot path. *)
