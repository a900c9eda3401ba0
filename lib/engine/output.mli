(** Node outputs.

    A single record covers every algorithm in the repository: leader
    election sets {!field-role}; ring orientation sets
    {!field-cw_port}; composed computations (Corollary 5) set
    {!field-value} or {!field-values}.  Outputs are revisable until the
    node terminates — stabilizing algorithms overwrite them as pulses
    arrive, exactly like the [state] variable of Algorithm 1. *)

type role = Leader | Non_leader | Undecided

type t = {
  role : role;
  cw_port : Port.t option;
      (** The local port this node believes leads to its clockwise
          neighbour, for orientation algorithms. *)
  value : int option;  (** Scalar result of a composed computation. *)
  values : int list;  (** Vector result (e.g. an all-gather). *)
}

val empty : t
(** Undecided, no orientation, no values. *)

val leader : t
val non_leader : t

val with_role : role -> t -> t
val with_cw_port : Port.t -> t -> t
val with_value : int -> t -> t
val with_values : int list -> t -> t

val role_to_string : role -> string
val equal_role : role -> role -> bool

val unique_leader : t array -> int option
(** The one node whose role is [Leader], if exactly one is. *)

val role_code : role -> int
(** [0], [1] or [2], for the int-array snapshots of program state. *)

val role_of_code : int -> role
(** Inverse of {!role_code}; any other code is [Undecided]. *)

val equal : t -> t -> bool
(** Structural equality, field by field and monomorphic throughout —
    the engine compares outputs on every [set_output], so this must
    never fall back to polymorphic compare. *)

val add_int : Buffer.t -> int -> unit
(** Append [n] in decimal, digit-direct (no [string_of_int]
    allocation): the int renderer of the engine fingerprints. *)

val add_compact : Buffer.t -> t -> unit
(** Append an unambiguous compact rendering (fixed field order, one
    token per field): two outputs render equal iff {!equal} holds.
    The allocation-light path the engine fingerprints use — the model
    checker calls it for every node of every state. *)

val pp : Format.formatter -> t -> unit
