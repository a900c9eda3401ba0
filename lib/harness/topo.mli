(** The shared [--topology] flag: one syntax for every subcommand that
    can run on a graph, with rings as the degree-2 special case.

    A topology names a family instance, not a concrete graph: parsing
    is pure, and {!materialize} builds the
    {!Colring_graph.Gtopology.t} on demand.  Ring topologies are
    special — the driver dispatches them to the legacy ring engine
    path ({!Colring_core.Election}) so their journals and reports stay
    byte-identical to the pre-graph CLI; {!is_ring} is that test. *)

type t =
  | Ring of int option
      (** [None]: take the size from the subcommand's [-n] flag. *)
  | Theta of int  (** Total node count (>= 4), inner nodes split 3 ways. *)
  | K4
  | Bowtie  (** Two triangles sharing a cut vertex (n = 5). *)
  | Random2ec of { n : int; seed : int }
      (** An n-cycle plus [1 + n/4] random chords — 2-edge-connected by
          construction. *)

val parse : string -> (t, string) result
(** Accepts [ring], [ring:N], [theta:N], [k4], [bowtie] (alias
    [two-ear]), [random2ec:N:SEED], with [N] at most
    {!Batch.max_n}; errors name the flag and the offending field. *)

val to_string : t -> string
(** Round-trips with {!parse}. *)

val is_ring : t -> bool

val node_count : default_n:int -> t -> int
(** The number of nodes {!materialize} will produce; [default_n]
    resolves [Ring None]. *)

val materialize : default_n:int -> t -> Colring_graph.Gtopology.t
(** Build the graph.  Deterministic: the same [t] (and [default_n] for
    bare rings) always yields the identical topology. *)
