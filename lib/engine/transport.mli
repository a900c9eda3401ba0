(** Transport backends: one election, many substrates.

    A backend runs a ring of per-node programs to completion and
    returns a {!trace} — outputs, counters, and crucially the exact
    delivery {!trace.schedule} it realised (one link id per delivery,
    post-termination drops included).  Honesty across backends is
    enforced mechanically rather than argued: any trace replays on the
    deterministic simulator via {!Scheduler.of_schedule}, and the
    replay must reproduce the run exactly ({!equivalent}; journal
    byte-diffs in the test-suite).  The replay argument: a delivery's
    index is assigned before the receiver's wake runs, the wake
    precedes every send it causes, and those sends precede the
    deliveries that consume them — so every recorded schedule is
    causally consistent and fits [of_schedule]; since nodes share no
    state, the per-node projection of the schedule fully determines
    each node's behaviour, which the simulator then reproduces.

    This module is the backend-independent half: fault model, jittered
    adversary, recording, the simulator backend, and replay.  The
    shared-memory (domains) and real-process (socket) backends live in
    [Colring_transport] — they need unix, which the engine must not
    depend on. *)

(** {2 Fault injection}

    One latency and one jitter for every link.  On real backends the
    unit is microseconds of wall-clock sleep; on the simulator it is
    abstract time units (one unit = one send).  The jitter draw for
    the [k]-th pulse of a link is a pure hash of (seed, link, k) —
    {!delay_us} — so the fault pattern is reproducible on every
    backend and under replay. *)

type faults = {
  fseed : int;  (** Seed of the jitter hash (independent of run seed). *)
  latency : int;  (** Base delay of every pulse, [>= 0]. *)
  jitter : int;
      (** Upper end of the uniform extra draw in [\[0, jitter\]],
          [>= 0]. *)
}

val no_fault : faults
(** Zero latency, zero jitter everywhere — the identity fault model. *)

val faults : ?seed:int -> latency:int -> jitter:int -> unit -> faults
(** Raises [Invalid_argument] on a negative latency or jitter. *)

val is_pure : faults -> bool
(** No link delays anything: backends may skip the fault layer. *)

val delay_us : faults -> link:int -> k:int -> int
(** Delay of the [k]-th pulse consumed from [link]: the latency
    plus [hash(seed, link, k) mod (jitter + 1)].  Pure, allocation-free
    (native-int mixing; listed in [tools/lint/hot.sexp]). *)

val jittered : faults -> Scheduler.t
(** The fault model as a deterministic adversary for the simulator:
    each in-flight pulse's virtual arrival time is its global send
    sequence number plus its {!delay_us} draw; the earliest arrival is
    delivered first (ties by send order).  This is how [--latency] /
    [--jitter] act on the [sim] backend — the engine itself never
    sleeps. *)

type recorder = { mutable buf : int array; mutable len : int }
(** A growable append-only link buffer — the raw material of schedule
    recording.  Exposed concretely so concurrent backends can append
    under their own lock (the next free index, [len], doubles as the
    delivery index they tag terminations with). *)

val recorder : unit -> recorder
val record : recorder -> int -> unit
val recorded : recorder -> int array

val recording : Scheduler.t -> Scheduler.t * (unit -> int array)
(** [recording sched] wraps a scheduler so every pick is appended to a
    growable {!recorder}; the returned thunk snapshots the schedule so
    far.  The wrapper keeps [sched]'s name, so journals are
    unaffected. *)

(** {2 Backends} *)

type trace = {
  backend : string;  (** Which backend produced the run. *)
  scheduler : string;
      (** Adversary name to stamp on replays (via
          [Scheduler.of_schedule ~name]), so replayed journals carry
          the original's scheduler field byte-for-byte. *)
  n : int;
  schedule : int array;
      (** Realised delivery order, as link ids — drops included.
          Length = [deliveries + drops]. *)
  outputs : Output.t array;
  sends : int;
  deliveries : int;
  drops : int;  (** Post-termination arrivals (quiescence violations). *)
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;  (** Stopped by [max_deliveries], not quiescence. *)
  termination_order : int list;
}

type t = {
  name : string;
  run :
    ?seed:int ->
    ?max_deliveries:int ->
    ?faults:faults ->
    Topology.t ->
    (int -> Network.pulse Network.program) ->
    trace;
      (** Runs every node's program to quiescence (or the delivery
          budget) and returns the realised trace.  [seed] derives node
          RNG streams exactly as {!Network.create} does — backends must
          reproduce that derivation.  [faults] defaults to
          {!no_fault}. *)
}

val mailbox_api :
  node:int ->
  seed:int ->
  mailbox:int array ->
  send:(Port.t -> Network.pulse -> unit) ->
  set_output:(Output.t -> unit) ->
  terminate:(unit -> unit) ->
  Network.pulse Network.api
(** The api of a node a live backend runs outside the simulator: its
    mailboxes are the pulse counts [mailbox] (by port index, raised by
    the backend on each arrival, lowered by [recv]), handed to the
    program as the api's own [mailbox] field, as the simulator does; [send], [set_output]
    and [terminate] are the backend's; [rng] is {!Network.node_stream}. *)

val sim : ?sched:Scheduler.t -> unit -> t
(** The deterministic simulator as a backend (reference semantics).
    [sched] (default {!Scheduler.fifo}) drives the fault-free case;
    when [faults] are live the {!jittered} adversary replaces it. *)

val replay :
  ?seed:int ->
  trace ->
  Topology.t ->
  (int -> Network.pulse Network.program) ->
  trace
(** Re-runs a trace's schedule on the simulator.  For a quiescent
    trace obtained from the same [seed], topology and programs, the
    result satisfies {!equivalent} for every honest backend — the
    mechanical cross-backend check. *)

val equivalent : trace -> trace -> bool
(** Same size, outputs, counters, termination order and schedule
    (backend names may differ — that is the point). *)
