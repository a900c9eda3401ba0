(** General network topologies with per-node numbered ports.

    The paper works on rings, but its context ([8]) is 2-edge-connected
    graphs, and its closing question asks about general networks; this
    module provides the graph substrate for the walk election (bench
    E18), the rotor counterexample (E14) and for cross-validating the
    ring algorithms against an independent simulator.

    A node of degree d has ports [0..d-1]; each undirected edge
    occupies one port at each endpoint.  Multi-edges are allowed
    (2-edge-connected multigraphs matter: two parallel edges make a
    2-node "ring"); self-loops are not. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** Build from an undirected edge list; ports are assigned to each
    node in the order its edges appear.  Raises [Invalid_argument] on
    self-loops or out-of-range endpoints. *)

val ring : int -> t
(** The n-cycle [(0,1), (1,2), ..., (n-1,0)]; for [n = 2] a double
    edge, for [n = 1] invalid (a self-loop — use the 2-port ring engine
    for solitude experiments). *)

val theta : int -> int -> int -> t
(** Two hub nodes joined by three disjoint paths with the given numbers
    of inner nodes ([>= 0] each; at most one path may have 0 inner
    nodes).  The simplest 2-edge-connected non-ring. *)

val bowtie : unit -> t
(** Two triangles sharing node 0 (a "two-ear" graph): 2-edge-connected
    but not 2-vertex-connected, so its ear decomposition contains a
    closed ear anchored at the cut vertex.  The smallest graph that
    exercises the closed-ear branch of {!Ears.decompose}. *)

val complete : int -> t
(** K_n, [n >= 3]. *)

val cycle_with_chords : Colring_stats.Rng.t -> n:int -> chords:int -> t
(** An n-cycle plus [chords] random distinct non-adjacent chords. *)

val n : t -> int
val degree : t -> int -> int
val num_links : t -> int
(** Directed links = 2 × #edges. *)

val link_id : t -> node:int -> port:int -> int

val first_link : t -> int -> int
(** The links leaving a node are numbered consecutively:
    [link_id t ~node:v ~port:p = first_link t v + p] for every port
    [0 <= p < degree t v].  Engines precompute this to resolve a
    port without the range check of {!link_id}. *)

val link_src : t -> int -> int * int
val link_dst : t -> int -> int * int
val peer : t -> node:int -> port:int -> int * int

val reverse_link : t -> int -> int
(** The directed link running the opposite way along the same edge
    instance: if link [l] goes from [(v,p)] to [(w,q)], then
    [reverse_link t l] goes from [(w,q)] to [(v,p)]. *)

val edge_of_link : t -> int -> int
(** The undirected edge index (position in {!edges}) a directed link
    belongs to. *)

val link_of_edge : t -> edge:int -> src:int -> int
(** The directed link leaving [src] along edge instance [edge]; raises
    [Invalid_argument] if [src] is not an endpoint of that edge.  Well
    defined on multigraphs because every edge instance occupies exactly
    one port at each endpoint. *)

val edges : t -> (int * int) list
(** One entry per undirected edge, endpoints in insertion order. *)

val bridges : t -> (int * int) list
(** Edges whose removal disconnects the graph (Tarjan lowlink on the
    multigraph — a parallel edge is never a bridge). *)

val is_two_edge_connected : t -> bool
(** Connected and bridge-free — the necessary and sufficient condition
    of [8] for non-trivial content-oblivious computation. *)

val is_connected : t -> bool
val pp : Format.formatter -> t -> unit
