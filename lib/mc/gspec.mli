(** Walk-election specs, the graph analogue of {!Spec}: exhaustive
    verdicts for the walk election of {!Colring_graph.Gelection} on
    graphs small enough to explore completely, plus the bridge and
    rotor ablations the checker must refute.  A graph network is a
    {!Colring_engine.Network.core}, so these specs run through the
    same {!Mc.check} as the ring specs, and {!Spec.of_target} names
    their fixed instances. *)

open Colring_graph

val walk_election :
  ?name:string -> Gtopology.t -> ids:int array -> unit Gnetwork.t Mc.spec
(** The full walk-election verdict on a 2-edge-connected [topo]:
    per-step send bound [walk_length * covered_id_max], and at
    quiescence exact sends with every node decided and the unique
    Leader at the maximum id. *)

val barbell : unit -> Gtopology.t
(** Two triangles joined by a bridge (n = 6): the canonical
    not-2-edge-connected instance. *)

val bridge_ablation : ids:int array -> unit Gnetwork.t Mc.spec
(** The walk election on {!barbell} (decomposed with
    [require_2ec:false]) against the {e whole-graph} election verdict:
    nodes beyond the bridge stay Undecided at every quiescent state,
    and the checker exhibits the minimized roles violation
    ([expect_violation = true]). *)

val rotor_ablation : ids:int array -> unit Gnetwork.t Mc.spec
(** {!Colring_graph.Circulate.rotor}, the naive generalization of the
    ring relay rule, on [theta 0 1 1] (four nodes), against the
    whole-graph election verdict ([expect_violation = true]): with ids
    [[2; 4; 1; 3]], the [ablation:rotor] target, some schedule
    quiesces without a unique Leader at the maximum id. *)
