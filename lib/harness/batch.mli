(** Batched election jobs: N independent elections fanned out over
    per-domain {!Colring_engine.Flock}s, with per-instance journals.

    A batch is an array of {!spec}s (one election each).  Jobs are
    grouped by topology — oriented jobs of equal ring size share a
    flock, and so do non-oriented jobs of equal ring size, whose
    scramble is drawn from the ring size alone (a batch is "many
    elections on the same ring"; [colring elect] instead draws a
    scramble per run from its seed) — then split into waves of at most
    [slots] instances.  Waves are distributed over domains by
    {!Colring_runtime.Pool}; each domain keeps one warm flock per
    group, so a long batch's steady state reloads slots instead of
    allocating.

    Everything a job produces — its report, its journal bytes, its
    slot in the result arrays — is keyed by the job's index in the
    spec array, never by the domain or wave that ran it, so reports
    and journals are byte-identical for every [jobs] value and either
    pool mode. *)

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
    50M-delivery budget, and a warm flock's per-slot state grows with
    [n]. *)

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

type outcome = {
  reports : Colring_core.Election.report array;  (** In spec order. *)
  latencies : float array;
      (** Seconds from batch start to each job's completion (spec
          order); [[||]] when [now] was not provided. *)
  elapsed : float;  (** Wall-clock for the whole batch; [0.] without [now]. *)
}

val run :
  ?jobs:int ->
  ?mode:Colring_runtime.Pool.mode ->
  ?slots:int ->
  ?events:bool ->
  ?journal:(int -> string -> unit) ->
  ?now:(unit -> float) ->
  sched:(int -> Colring_engine.Scheduler.t) ->
  spec array ->
  outcome
(** [run ~sched specs] executes every job and returns reports in spec
    order.  [sched] receives the job's seed (stateful schedulers are
    built fresh per job, as [colring elect] does).  [jobs] (default 1)
    and [mode] (default [Static]) configure the pool; waves are
    claimed [~chunk:1] since each is minutes of work relative to a
    cursor pop.  [slots] (default 256) bounds instances per flock
    wave.

    [journal] receives each job's JSONL chunk (run_start, snapshots,
    run_end, plus per-event records when [events] — default [false] —
    is set), called in job order after the pool drains; jobs buffer
    privately, so chunks are byte-identical for every [jobs]/[mode].
    When [journal] is absent jobs run against the null sink and pay no
    telemetry cost.

    [now] (e.g. [Unix.gettimeofday]) timestamps completions for the
    latency percentiles; the harness takes it as a parameter so the
    library stays clock-free (the determinism lint patrols wall-clock
    reads).

    A job that raises (its scheduler or program, say) aborts the batch
    with that exception.  The warm flock it ran on is dropped from the
    domain's cache, so a later batch of the same group — the next
    [colring serve] line — starts on a fresh one. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [0, 1]; [sorted] ascending.
    Same convention as the bench's transport table ([0.] when
    empty). *)
