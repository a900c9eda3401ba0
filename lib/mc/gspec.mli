(** Walk-election specs for the graph-engine checker.

    {!Gmc} is {!Mc.Make} on the graph engine
    ({!Colring_graph.Gnetwork}); the builders here are
    the graph analogue of {!Spec}: exhaustive verdicts for the walk
    election of {!Colring_graph.Gelection} on graphs small enough to
    explore completely, plus the bridge and rotor ablations the checker
    must refute. *)

open Colring_graph

module Gmc : Mc.S with type 'm net = 'm Gnetwork.t

val walk_election :
  ?name:string -> Gtopology.t -> ids:int array -> unit Gmc.spec
(** The full walk-election verdict on a 2-edge-connected [topo]:
    per-step send bound [walk_length * covered_id_max], and at
    quiescence exact sends with every node decided and the unique
    Leader at the maximum id. *)

val barbell : unit -> Gtopology.t
(** Two triangles joined by a bridge (n = 6): the canonical
    not-2-edge-connected instance. *)

val bridge_ablation : ids:int array -> unit Gmc.spec
(** The walk election on {!barbell} (decomposed with
    [require_2ec:false]) against the {e whole-graph} election verdict:
    nodes beyond the bridge stay Undecided at every quiescent state,
    and the checker exhibits the minimized roles violation
    ([expect_violation = true]). *)

val rotor_ablation : unit -> unit Gmc.spec
(** {!Colring_graph.Circulate.rotor}, the naive generalization of the
    ring relay rule, on [theta 0 1 1] with ids [[2; 4; 1; 3]], against
    the whole-graph election verdict ([expect_violation = true]): some
    schedule quiesces without a unique Leader at the maximum id. *)

val targets : string list
(** Graph check targets accepted by the CLI:
    [walk:theta3], [walk:k4], [walk:bowtie], [ablation:bridge],
    [ablation:rotor]. *)

val of_target : string -> unit Gmc.spec
(** Fixed small instance for a named target; raises [Invalid_argument]
    on unknown names. *)
