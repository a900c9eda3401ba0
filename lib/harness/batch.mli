(** Batched election jobs: N independent elections fanned out over
    per-domain warm simulator cores, with per-instance journals.

    A batch is an array of {!spec}s (one election each), on rings or
    on one graph ({!run_graph}).  Ring jobs are grouped by topology —
    oriented jobs of equal ring size share one, and so do non-oriented
    jobs of equal ring size, whose scramble is drawn from the ring size
    alone (a batch is "many elections on the same ring"; [colring
    elect] instead draws a scramble per run from its seed).  Jobs run
    on {!dispatch}, the one job runner (the sweeps of {!Sweep} use it
    too); each domain keeps one warm core per group and resets it for
    each of its jobs ([run_warm]) instead of allocating one.

    Everything a job produces — its report, its journal bytes, its
    slot in the result arrays — is keyed by the job's index in the
    spec array, never by the domain that ran it or the core it ran on,
    so reports and journals are byte-identical for every [jobs]
    value. *)

type spec = {
  algorithm : Colring_core.Election.algorithm;
  n : int;
  seed : int;  (** Drives IDs, the RNG streams, and the scheduler. *)
  id_max : int;
}

val algorithm_of_name :
  string -> (Colring_core.Election.algorithm, string) result
(** The [colring] algorithm names: algo1, algo2, algo3-doubled,
    algo3-improved, resample. *)

val max_n : int
(** The largest ring a spec line may ask for: 4096.  Past it not even
    the cheapest Algorithm 2 election (id_max = n) fits the default
    50M-delivery budget, and a warm core's state grows with [n]. *)

val max_id_max : int
(** The largest [id_max] a spec line may ask for: 2{^24}.  Past it not
    even a 2-ring's Algorithm 2 election fits the default budget. *)

val parse_line : string -> (spec option, string) result
(** One spec-file line: [algo n seed \[id_max\]], fields separated by
    spaces, [#] starting a comment.  [Ok None] for blank/comment
    lines.  [id_max] defaults to [2 * n]; [2 <= n <= max_n] and
    [n <= id_max <= max_id_max] are enforced here so a bad line fails
    before any job runs, with an error that names the field. *)

val parse_spec : string -> (spec array, string) result
(** A whole spec file; errors carry the 1-based line number. *)

val ids_of_spec : spec -> int array
(** The job's input IDs, exactly as [colring elect] draws them:
    [Ids.distinct (Rng.create ~seed) ~n ~id_max]. *)

type 'r outcome = {
  reports : 'r array;  (** In spec order. *)
  latencies : float array;
      (** Seconds from batch start to each job's completion (spec
          order); [[||]] when [now] was not provided. *)
  elapsed : float;  (** Wall-clock for the whole batch; [0.] without [now]. *)
}

val dispatch :
  ?jobs:int ->
  ?pool:Colring_runtime.Pool.t ->
  ?events:bool ->
  ?journal:(int -> string -> unit) ->
  ?now:(unit -> float) ->
  int ->
  (int -> Colring_engine.Sink.t -> 'r) ->
  'r outcome
(** [dispatch count job] runs [job i sink] once for every
    [0 <= i < count] and returns the results in index order.  Jobs are
    claimed one at a time ([~chunk:1]) on a pool of [jobs] domains
    (default 1) created for the call, or on [pool] (then [jobs] is
    ignored).  [job i] must depend only on [i] for the outcome to be
    the same at every [jobs].

    [sink] is the null sink unless [journal] is given; then it is a
    private JSONL buffer ([events], default [false], adds the
    per-event records), and [journal i chunk] receives job [i]'s bytes
    in index order after the pool drains.  [now] timestamps each
    completion for [latencies] and the whole run for [elapsed].  The
    first exception a job raises aborts the run and is re-raised. *)

val run :
  ?jobs:int ->
  ?pool:Colring_runtime.Pool.t ->
  ?events:bool ->
  ?journal:(int -> string -> unit) ->
  ?now:(unit -> float) ->
  sched:(int -> Colring_engine.Scheduler.t) ->
  spec array ->
  Colring_core.Election.report outcome
(** [run ~sched specs] executes every job on {!dispatch} and returns
    reports in spec order.  [sched] receives the job's seed (stateful
    schedulers are built fresh per job, as [colring elect] does).
    Given [pool], the domains of that long-lived pool keep their warm
    cores from call to call.  Each domain caches one warm core per
    (orientation, ring size).

    [journal] receives each job's JSONL chunk (run_start, snapshots,
    run_end, plus per-event records when [events] is set), in job
    order, byte-identical for every [jobs].  When [journal] is absent
    jobs run against the null sink and pay no telemetry cost.

    [now] (e.g. [Unix.gettimeofday]) timestamps completions for the
    latency percentiles; the harness takes it as a parameter so the
    library stays clock-free (the determinism lint patrols wall-clock
    reads).

    A job that raises (its scheduler or program, say) aborts the batch
    with that exception.  The warm core it ran on stays cached: the
    next job's reset cleans it, so a later batch of the same group —
    the next [colring serve] line — is unaffected. *)

val run_graph :
  ?jobs:int ->
  ?events:bool ->
  ?journal:(int -> string -> unit) ->
  ?now:(unit -> float) ->
  workload:string ->
  sched:(int -> Colring_engine.Scheduler.t) ->
  Colring_graph.Gelection.plan ->
  spec array ->
  Colring_graph.Gelection.report outcome
(** {!run} for the walk election on the plan's graph (of [n] nodes),
    every domain sharing the read-only plan.  A spec's algorithm and
    ring size are ignored: its seed draws the ids, as
    [Ids.distinct (Rng.create ~seed) ~n ~id_max:(max n id_max)], and
    the scheduler.  [workload] labels the run_start records. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [0, 1]; [sorted] ascending.
    Same convention as the bench's transport table ([0.] when
    empty). *)
