(** Content-oblivious leader election on 2-edge-connected multigraphs.

    The construction runs Algorithm 1's unidirectional counting
    automaton over the closed spanning walk of {!Ears}: the walk is a
    virtual unidirectional ring whose stations are walk positions
    ("occurrences" of nodes).  Each node designates its first
    occurrence as {e active} — that station counts arriving pulses
    with the node's real id, emits one initial pulse, absorbs the
    pulse that completes its count, and stabilizes to [Leader] iff no
    pulse ever arrives past its id — while every other occurrence
    relays verbatim.  Flow conservation gives every occurrence exactly
    [id_max] receives, so the run quiesces with total sends
    [walk_length * id_max] and the unique maximum-id covered node as
    the unique leader.  Like Algorithm 1 on rings the election is
    stabilizing, not terminating: nodes never call [terminate], and
    quiescence is the stop condition.

    With a plan built under [~require_2ec:false] on a bridged graph,
    the walk covers only the root's 2-edge-connected component;
    everything beyond a bridge stays [Undecided] forever — the
    ablation whose failure the model checker exhibits, matching the
    impossibility direction of the paper's context ([8]). *)

open Colring_engine

type plan
(** A decomposition plus the per-node routing tables the programs
    follow: for every in-port on the walk, the out-port to relay to,
    and which in-port feeds the node's active station. *)

val plan : ?require_2ec:bool -> Gtopology.t -> plan
(** Decompose and route.  [require_2ec] as in {!Ears.decompose}. *)

val decomposition : plan -> Ears.t
val walk_length : plan -> int

val covered_id_max : plan -> ids:int array -> int
(** Maximum id over covered nodes. *)

val expected_sends : plan -> ids:int array -> int
(** [walk_length * covered_id_max] — the closed form every conforming
    run matches exactly. *)

val program_of : plan -> ids:int array -> int -> unit Gnetwork.program
(** The per-node program; [ids] must satisfy {!val-make}'s
    validation.  Exposed separately so the model checker can rebuild
    fresh networks per explored branch. *)

val make :
  ?sink:Sink.t -> ?seed:int -> plan -> ids:int array -> unit Gnetwork.t
(** Validated network construction: ids are positive, [|ids| = n], and
    the covered nodes carry a unique maximum id (raises
    [Invalid_argument] otherwise). *)

type report = {
  algorithm : string;  (** ["walk-election"]. *)
  n : int;
  covered : int;  (** Nodes on the walk ([= n] iff 2-edge-connected). *)
  walk_len : int;
  num_ears : int;
  id_max : int;  (** Over covered nodes. *)
  sends : int;
  expected_sends : int;
  deliveries : int;
  quiescent : bool;
  exhausted : bool;
  post_term_deliveries : int;
  leader : int option;
  leader_is_max : bool;
  roles_ok : bool;
      (** Every covered node decided with exactly one leader, every
          uncovered node still [Undecided]. *)
}

val ok : report -> bool
(** The conjunction every healthy run satisfies: full coverage
    ([covered = n] — an ablation run on a bridged graph fails here
    even though the walk behaved as designed), exact send count,
    quiescent, within budget, no post-termination deliveries, unique
    max-id leader, roles consistent. *)

val report_fields : report -> (string * Sink.value) list
(** Flat journal fields in declaration order plus a final ["ok"], the
    graph analogue of [Election.report_fields]. *)

val run :
  ?seed:int ->
  ?max_deliveries:int ->
  ?sink:Sink.t ->
  ?workload:string ->
  ?snapshot_every:int ->
  plan ->
  ids:int array ->
  sched:Scheduler.t ->
  report * unit Gnetwork.t
(** Full run with the same sink lifecycle as [Election.run]: a
    run_start record before the network exists, periodic counter
    snapshots, a closing snapshot, the run_end report, then flush. *)

val run_report :
  ?seed:int ->
  ?max_deliveries:int ->
  ?sink:Sink.t ->
  ?workload:string ->
  ?snapshot_every:int ->
  plan ->
  ids:int array ->
  sched:Scheduler.t ->
  report

val run_warm :
  ?seed:int ->
  ?max_deliveries:int ->
  ?sink:Sink.t ->
  ?workload:string ->
  ?snapshot_every:int ->
  unit Gnetwork.t ->
  plan ->
  ids:int array ->
  sched:Scheduler.t ->
  report
(** {!run_report} on [net] after a {!Gnetwork.reset}: the same report
    and sink events, byte for byte.  [net] must be built on the very
    [Gtopology.t] of the plan ([Invalid_argument] otherwise) and may
    hold any earlier run, finished or abandoned.  The plan is only
    read, so cores in several domains can share it. *)
