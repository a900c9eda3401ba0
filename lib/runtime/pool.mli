(** A minimal domain pool for embarrassingly-parallel index ranges.

    Jobs are identified by their index in [0, n); workers claim
    [chunk]-sized index ranges, in order, from one shared atomic
    cursor, so the *assignment* of jobs to domains is nondeterministic
    but nothing else is: callers that make job [i] depend only on [i]
    (and write only to slot [i] of a result array) get bit-identical
    results for every [jobs] value, including [jobs = 1], which runs
    the plain sequential loop in the calling domain without spawning
    anything.  With [~chunk:1] every idle domain takes the next
    unclaimed job, so one long job strands no others behind it.

    A pool ({!create}) is [jobs - 1] worker domains parked on a
    condition variable — they do not spin while idle — plus the
    calling domain, which takes part in every call.  Each {!exec}
    publishes a fresh per-call task (its own cursor and failure
    cell) and returns only after every worker has left it, so
    consecutive calls never share claim state.  {!run} and {!map} are
    "create, one call, shut down" on the same machinery.

    If a job raises, the remaining workers stop claiming new chunks,
    the call waits for every worker to leave, and the first exception
    (by claim order) is re-raised in the caller; the pool is never
    left wedged and serves the next call.  When [Domain.spawn] fails
    mid-way (OS domain limit), every domain that did spawn is joined
    before the spawn exception propagates, so a failed {!create} or
    {!run} never leaks domains. *)

val default_jobs : unit -> int
(** The [COLRING_JOBS] environment variable if set (must parse as a
    positive integer — [Invalid_argument] otherwise), else
    {!Domain.recommended_domain_count}. *)

type t
(** A long-lived pool.  Calls on one pool must not overlap: an {!exec}
    that would wake the workers while another call has them — from
    inside one of its jobs, or from another domain — raises
    [Invalid_argument]. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] parked worker domains.
    [Invalid_argument] if [jobs < 1]. *)

val exec :
  ?chunk:int ->
  ?on_failure:(unit -> unit) ->
  t ->
  int ->
  (int -> unit) ->
  unit
(** [exec pool n f] is {!run} on [pool]'s domains: at most
    [min jobs (max n 1)] of them take part.  A call with [n <= 1] (or
    on a [jobs = 1] pool) runs in the caller without waking anyone.
    [Invalid_argument] after {!shutdown}, while another call is
    running, or on the arguments {!run} refuses. *)

val shutdown : t -> unit
(** Wake and join every worker.  Idempotent. *)

val run :
  ?chunk:int ->
  ?on_failure:(unit -> unit) ->
  jobs:int ->
  int ->
  (int -> unit) ->
  unit
(** [run ~jobs n f] evaluates [f i] exactly once for every
    [0 <= i < n], using at most [jobs] domains (the calling domain
    included) of a pool created for the call and shut down after it.
    [chunk] is the number of consecutive indices claimed per pop; when
    omitted it auto-tunes to [max 1 (n / (jobs * 8))] — about eight
    claims per worker on a balanced run — so huge-[n] sweeps do not
    hammer the cursor one index at a time.  Pass
    [~chunk:1] explicitly for maximal balancing of few, long jobs.
    [on_failure] (default a no-op) runs exactly once, in the domain
    that recorded the first failure, the moment a job or a
    [Domain.spawn] raises — jobs whose bodies block on shared state
    (e.g. a transport backend's per-node loops) use it to flip their
    own abort flag so every body unblocks and the call can return.
    [Invalid_argument] if [jobs < 1], [chunk < 1] or [n < 0]. *)

val map :
  ?chunk:int ->
  ?on_failure:(unit -> unit) ->
  jobs:int ->
  int ->
  (int -> 'a) ->
  'a array
(** [map ~jobs n f] is [[| f 0; ...; f (n-1) |]] computed as {!run}
    does: every index, [0] included, is claimed from the pool like the
    rest, and slot [i] holds [f i] regardless of which domain ran it. *)
