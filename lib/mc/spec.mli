(** Checkable system specifications for the paper's algorithms, their
    deliberately broken {!Colring_core.Ablation} variants, the classic
    content-carrying baselines, and the walk election on small
    2-edge-connected graphs with its bridge and rotor ablations.  Ring
    and graph networks are both a {!Colring_engine.Network.core}, so
    every spec runs through the same {!Mc.check} and is judged by one
    set of verdict pieces.

    Each builder fixes one concrete instance (topology, IDs) and pairs
    it with the strongest sound property split for its algorithm:

    - {b Algorithm 2} (and its no-lag ablation) terminates quiescently,
      so Theorem 1's termination claims are per-step invariants: no
      pulse reaches a terminated node, nodes terminate along the
      promised counterclockwise order (the terminated set is always a
      prefix of it), a terminated node's role is frozen at its final
      value, and sends stay within the closed form.  Outputs of {e
      running} nodes still revise (Algorithm 2 runs Algorithm 1 over
      its clockwise channel), so roles are only pinned down at the
      terminal state, which must be exact: everyone terminated, total
      sends equal to the formula, the max-ID node the unique Leader.
    - {b Algorithms 1 and 3} (and the remaining ablations) merely
      stabilize, so transient states may disagree (e.g. two Leaders for
      a moment is legitimate); only the schedule-independent send bound
      is monitored per step, everything else (roles, orientation, exact
      totals) is asserted at quiescence.
    - {b Classic baselines} have no closed form to monitor; the depth
      budget guards non-termination and the terminal state must elect
      the max-ID node.

    Randomized targets (Itai–Rodeh, ID resampling) are rejected with
    [Invalid_argument]: the checker explores a deterministic system's
    schedule nondeterminism only. *)

type ablation = No_lag | Same_virtual_ids | No_absorption

type packed = Packed : (_, _) Colring_engine.Network.core Mc.spec -> packed
    (** Existential wrapper so a CLI can treat pulse protocols,
        content-carrying classics and graph elections uniformly. *)

val election :
  Colring_core.Election.algorithm ->
  ids:int array ->
  topo_seed:int ->
  Colring_engine.Network.pulse Colring_engine.Network.t Mc.spec
(** Spec for one of the paper's algorithms on its natural topology:
    oriented for 1 and 2, a seed-derived non-oriented ring for 3.
    IDs must be positive, [Array.length ids] is the ring size.
    [Invalid_argument] for {!Colring_core.Election.Algo3_resample}. *)

val ablation :
  ablation ->
  ids:int array ->
  topo_seed:int ->
  Colring_engine.Network.pulse Colring_engine.Network.t Mc.spec
(** Same shapes with the broken program substituted and
    [expect_violation] set: checking one of these {e must} produce a
    counterexample. *)

val anon_relay :
  n:int -> Colring_engine.Network.pulse Colring_engine.Network.t Mc.spec
(** The anonymous {!Colring_core.Relay} protocol on an oriented ring
    of [n] nodes — every node identical, so the spec carries a
    rotation {!Mc.sym} hook and exercises the checker's symmetry
    reduction.  Checks the schedule-independent send total ([2n],
    monitored as a bound per step and exactly at quiescence) and that
    every node quiesces having received exactly two pulses. *)

val walk_election :
  ?name:string ->
  Colring_graph.Gtopology.t ->
  ids:int array ->
  unit Colring_graph.Gnetwork.t Mc.spec
(** The walk election of {!Colring_graph.Gelection} on a
    2-edge-connected graph small enough to explore completely: per-step
    send bound [walk_length * covered_id_max], and at quiescence exact
    sends with every node decided and the unique Leader at the maximum
    id. *)

val barbell : unit -> Colring_graph.Gtopology.t
(** Two triangles joined by a bridge (n = 6): the canonical
    not-2-edge-connected instance. *)

val bridge_ablation : ids:int array -> unit Colring_graph.Gnetwork.t Mc.spec
(** The walk election on {!barbell} (decomposed with
    [require_2ec:false]) against the {e whole-graph} election verdict:
    nodes beyond the bridge stay Undecided at every quiescent state,
    and the checker exhibits the minimized roles violation
    ([expect_violation = true]). *)

val rotor_ablation : ids:int array -> unit Colring_graph.Gnetwork.t Mc.spec
(** {!Colring_graph.Circulate.rotor}, the naive generalization of the
    ring relay rule, on [theta 0 1 1] (four nodes), against the
    whole-graph election verdict ([expect_violation = true]): with ids
    [[2; 4; 1; 3]], the [ablation:rotor] target, some schedule
    quiesces without a unique Leader at the maximum id. *)

val classic : string -> ids:int array -> packed
(** Baseline spec by name ([chang-roberts], [lelann],
    [hirschberg-sinclair], [peterson], [franklin]); oriented ring,
    unique positive IDs required.  [Invalid_argument] for unknown
    names and for the randomized [itai-rodeh]. *)

val of_target : string -> ids:int array -> topo_seed:int -> packed
(** Parse any {!targets} string into its spec.  A ring target is built
    on [ids] (and, for Algorithm 3's shapes, a ring drawn from
    [topo_seed]); a graph target ({!fixed_ids}) ignores both and
    builds its fixed instance. *)

val fixed_ids : string -> int array option
(** The ids of a graph target's fixed instance — [walk:theta3],
    [walk:k4], [walk:bowtie] (the {!walk_election}),
    [ablation:bridge] and [ablation:rotor] — whose node count is the
    array's length; [None] for a ring target. *)

val targets : string list
(** Every name {!of_target} accepts, in display order: the ring
    targets, then the graph targets. *)
