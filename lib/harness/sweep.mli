(** Parameter sweeps: run algorithm × workload × ring-size × seed ×
    scheduler grids, collect one measurement per run, and export or
    summarize them.

    The sweep silently skips incompatible cells (an oriented-only
    algorithm on a scrambled workload) and instances whose pulse budget
    would be excessive (anonymous workloads can sample enormous IDs;
    the cost is Θ(n·ID_max)). *)

type measurement = {
  algorithm : string;
  workload : string;
  n : int;
  id_max : int;
  seed : int;
  scheduler : string;
  sends : int;
  expected : int;  (** The paper's closed form for the instance. *)
  deliveries : int;
  ok : bool;  (** {!Colring_core.Election.ok}. *)
}

val election :
  ?id_max_cap:int ->
  ?jobs:int ->
  ?shared_adversary:bool ->
  ?journal:(string -> unit) ->
  algorithms:Colring_core.Election.algorithm list ->
  workloads:Workload.t list ->
  ns:int list ->
  seeds:int list ->
  schedulers:(int -> Colring_engine.Scheduler.t) list ->
  unit ->
  measurement list
(** Run the full grid.  Each cell of
    algorithm × workload × n × seed × scheduler is an independent job:
    it regenerates its instance from the (seed, n) stream and derives
    its scheduler seed from a per-cell {!Colring_stats.Rng.split_at}
    stream, so the measurement list (order included) is bit-identical
    for every [jobs] value — [jobs] (default 1; see
    {!Colring_runtime.Pool.default_jobs} for the [COLRING_JOBS]
    convention) only chooses how many domains sweep the grid.

    [schedulers] receive the per-cell scheduler seed (stateful ones are
    built fresh per cell).  [shared_adversary] (default [false])
    instead passes every cell its raw trial seed, making a seeded
    random scheduler replay the identical delivery sequence across
    cells that share a trial seed — the "same instance, many
    adversaries" comparison of bench E2.  [id_max_cap] (default
    100_000) skips over-sized instances.

    Each cell is one job on {!Batch.dispatch} and builds a fresh
    network.  [journal] receives the sweep's JSONL journal: one
    run_start/snapshots/run_end block per executed cell (lifecycle
    records only — per-event lines would dwarf the sweep itself),
    written as per-cell chunks in cell-index order after the pool
    drains, so the journal — like the measurement list — is
    byte-identical for every [jobs] value. *)

val to_csv : measurement list -> string
(** Header plus one line per measurement. *)

type gmeasurement = {
  g_topology : string;  (** {!Topo.to_string} of the family instance. *)
  g_n : int;
  g_covered : int;
  g_walk_len : int;
  g_id_max : int;
  g_seed : int;
  g_scheduler : string;
  g_sends : int;
  g_expected : int;  (** [walk_len * id_max], the walk closed form. *)
  g_deliveries : int;
  g_ok : bool;  (** {!Colring_graph.Gelection.ok}. *)
}

val gelection :
  ?jobs:int ->
  ?journal:(string -> unit) ->
  topologies:Topo.t list ->
  seeds:int list ->
  schedulers:(int -> Colring_engine.Scheduler.t) list ->
  unit ->
  gmeasurement list
(** The graph analogue of {!election}: run the walk election over a
    topology × seed × scheduler grid, on {!Batch.dispatch}.  Each
    topology is materialized and planned once, and its cells share the
    plan read-only.  A cell draws distinct ids with [id_max = 2n] from
    the (topology, seed) stream and derives its scheduler seed via
    {!Colring_stats.Rng.split_at} — so the measurement list and the
    optional JSONL [journal] (per-cell lifecycle chunks, concatenated
    in cell order) are bit-identical for every [jobs] value. *)

val gelection_to_csv : gmeasurement list -> string

type summary_row = {
  group : string;  (** "algorithm/workload". *)
  group_n : int;
  runs : int;
  ok_runs : int;
  mean_sends : float;
  max_rel_err_vs_expected : float;
}

val summarize : measurement list -> summary_row list
(** Group by (algorithm, workload, n), sorted. *)

val pp_summary : Format.formatter -> summary_row list -> unit
