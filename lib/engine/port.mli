(** The two communication ports of a ring node (Section 2 of the paper).

    A node only ever sees its local port names [Port_0] and [Port_1];
    whether a port leads clockwise is a global property the node cannot
    observe on a non-oriented ring.  Node programs name them by
    {!index}, as the ports [0] and [1] of {!Network.api}; this type
    names them in the ring's geometry ({!Topology.peer},
    {!Topology.link_id}), in {!Output.t}'s [cw_port] and in
    {!Trace}. *)

type t = P0 | P1

val opposite : t -> t
(** [opposite P0 = P1] and vice versa. *)

val index : t -> int
(** [0] or [1]; used for array indexing. *)

val of_index : int -> t
(** Inverse of {!index}; raises [Invalid_argument] outside [{0,1}]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
