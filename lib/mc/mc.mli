(** Stateless model checking over the deterministic engine core.

    The engine's only nondeterminism is which non-empty link delivers
    next, and a run is a deterministic function of its choice
    sequence, so a recorded sequence of link ids {e is} a state
    snapshot: any state is rebuilt by replaying its prefix on a fresh
    network.  {!check} explores the choice tree and evaluates a
    per-step safety monitor after {e every} delivery plus a terminal
    predicate at every quiescent state.

    Backtracking is {b incremental} wherever the engine allows it:
    when every program keeps its state in a register file
    ({!Colring_engine.Network.Core.undo_capable}), descending is a
    [force_step_undo] and backtracking an [undo_step] — O(1) per edge
    instead of replaying the whole prefix.  A network with an [Opaque]
    program rebuilds each later sibling by replaying its prefix.  The mode
    shows only in {!stats.replayed_deliveries} and
    {!stats.undone_deliveries}.

    Exploration is {b parallel over subtrees}: a bounded sequential
    BFS carves the tree into a frontier of 16 or more independent
    subtree tasks, which the domain pool ({!Colring_runtime.Pool})
    drains one task per claim.  The BFS and the subtree DFS visit a
    state with the same step (dedup, budget, terminal and depth
    checks, branch set).  Each task owns its network, monitor and
    seen-table, so verdicts, minimized counterexamples {e and the full
    stats block} are bit-identical for every [jobs] value.
    [max_states] is one {e global} budget: a shared ticket counter
    throttles the fleet, and a canonical repair pass re-folds the
    tasks in frontier order against the exact remaining budget,
    reproducing sequential budget semantics independent of
    scheduling.

    Three reductions keep the tree tractable (DESIGN.md section 8 has
    the soundness arguments):

    - {b Sleep sets} (partial-order reduction): deliveries to distinct
      nodes commute, so of two adjacent independent deliveries only
      one order needs exploring.  Dependence is keyed on the receiver
      node; sleep sets are [int] bit masks over link ids (hence at
      most 60 links, i.e. rings up to n = 30 — far beyond what
      exhaustive exploration can visit anyway).
    - {b Source sets} ({!reduction} [Source]): when every {e live}
      in-link of some node already holds a message, the enabled
      deliveries into that node form a persistent set — branching on
      them alone is sound for trace-invariant properties (monotone
      counter bounds, quiescent-state predicates, the depth budget).
      Specs whose monitors observe interleaving order (e.g.
      termination order) must keep [Sleep].
    - {b State caching}: states that merge across interleavings (the
      engine fingerprint extended with the monotone
      send/delivery/drop counters) are pruned when revisited under a
      sleep set that includes one they were already expanded under.
      With a {!sym} hook the key is the canonical representative's
      and the sleep mask travels through the canonicalizing link
      permutation, so anonymous-ring states merge modulo rotation.
      Disable it ({!type-spec} [dedup = false]) for content-carrying
      protocols, whose payloads the fingerprint cannot see.

    Counterexamples are choice sequences; {!minimize} shrinks them
    greedily and re-confirms the shrunk schedule through the ordinary
    run loop ({!Colring_engine.Scheduler.of_schedule}) before
    reporting it — a shrink that fails to reproduce falls back to the
    unminimized schedule.

    The checker works on any {!Colring_engine.Network.core}: a ring's
    [Network.t] or a graph's [Colring_graph.Gnetwork.t].  A {!type-spec}
    is parametrised by the network it builds, and the link geometry
    (how many links, which node each delivers to) comes from the
    core's own link tables. *)

val max_links : int
(** 60: the most directed links a checked topology may have, since
    sleep sets are [int] bit masks over link ids.  {!check} raises
    [Invalid_argument] beyond it. *)

type stats = {
  states : int;  (** States expanded (post-pruning). *)
  schedules : int;  (** Quiescent (terminal) states visited. *)
  replayed_deliveries : int;  (** Replay-mode backtracking work. *)
  undone_deliveries : int;  (** Incremental-undo backtracking work. *)
  sleep_pruned : int;  (** Branches skipped by sleep sets. *)
  dedup_pruned : int;  (** Revisits cut by state caching. *)
  max_depth_seen : int;
  truncated : bool;  (** The global [max_states] budget was hit. *)
}

type counterexample = {
  schedule : int array;  (** Link choice sequence from the start. *)
  violation : string;
}

type result = { stats : stats; counterexample : counterexample option }

type reduction =
  | Sleep  (** Sleep sets only — always sound. *)
  | Source of { live : int }
      (** Sleep sets plus source-set branching.  [live] is the bit
          mask of links that can ever carry a message; the checker
          verifies it dynamically ([Invalid_argument] if a message
          appears outside it) and gates eligibility on every live
          in-link of the candidate node being non-empty.  Only sound
          when monitor/terminal verdicts are invariant under
          reordering of commuting deliveries. *)

type sym = {
  key : string;
      (** Canonical fingerprint of the state's symmetry orbit; must
          embed the progress counters (it {e replaces} the default
          dedup key). *)
  perm : int array;
      (** Link permutation mapping this state's link ids to the
          canonical representative's: [perm.(l)] is where link [l]
          lands.  Sleep masks are pushed through it before seen-table
          operations. *)
}

val depth_violation : string
(** The violation reported when a schedule exceeds [max_depth]. *)

type 'net spec = {
  name : string;  (** For reports and journals. *)
  make : unit -> 'net;
      (** A fresh instance.  Must be deterministic: every call builds
          the identical initial state (fixed topology, ids, seed). *)
  monitor : unit -> 'net -> string option;
      (** [monitor ()] creates one safety monitor per path walk; the
          returned closure is applied after every delivery (and once
          to the initial state) and returns a violation description,
          or [None].  It may keep state across the calls of one walk
          (e.g. previously seen outputs); with [dedup] it must remain
          a function of the observed state on violation-free paths. *)
  terminal : 'net -> string option;
      (** Checked at every state with nothing in flight. *)
  max_depth : int;
      (** Delivery budget per schedule; exceeding it is itself a
          violation ({!depth_violation}) — the checker's termination
          invariant. *)
  dedup : bool;  (** Enable state caching (see above). *)
  reduction : reduction;
      (** Partial-order reduction level; see {!reduction}. *)
  symmetry : ('net -> sym) option;
      (** Canonicalization hook for symmetric (anonymous) systems;
          requires [dedup].  The checked properties must be
          invariant under the declared symmetry group. *)
  expect_violation : bool;
      (** Whether a counterexample is the {e desired} outcome — true
          for the ablation variants, which a checker worth its salt
          must catch. *)
}

val check :
  ?jobs:int ->
  ?max_states:int ->
  ('m, 'api, 'topo) Colring_engine.Network.core spec ->
  result
(** Walk the schedule space of [spec].  A sequential BFS expands
    the root until at least 16 frontier subtrees exist (or the space
    is exhausted), then the subtrees drain over the
    {!Colring_runtime.Pool} domain pool ([jobs], default 1).
    Results — verdict, minimized counterexample, every stats field —
    are bit-identical for every [jobs] value.  [max_states] (default
    1_000_000) bounds the states expanded {e globally}; exceeding it
    sets {!stats.truncated}.  The first counterexample in canonical
    (BFS-frontier, then DFS) order is returned, minimized and
    replay-confirmed via {!minimize}. *)

val replay :
  (('m, 'api, 'topo) Colring_engine.Network.core as 'net) spec ->
  int array ->
  'net * string option
(** Replay a schedule on a fresh instance: the resulting network and
    the first violation observed (monitor during the walk, terminal
    at the end if quiescent, {!depth_violation} if the schedule
    reaches [max_depth] without violating otherwise).  Raises
    [Invalid_argument] if the schedule does not fit the run. *)

val minimize :
  (_, _, _) Colring_engine.Network.core spec -> counterexample -> counterexample
(** Greedy shrinking: truncate at the first violating step, then
    repeatedly try dropping single deliveries (skipping infeasible
    candidates) until no removal preserves a violation.  The result
    is 1-minimal — every single-element removal is violation-free —
    though not necessarily globally minimal.  The shrunk schedule is
    re-confirmed with {!confirm}; if confirmation fails the original
    counterexample is returned unchanged. *)

val confirm :
  (_, _, _) Colring_engine.Network.core spec -> counterexample -> bool
(** Drive the counterexample's schedule through the engine's
    {e ordinary} run loop ({!Colring_engine.Scheduler.of_schedule} —
    not the checker's forcing path) on a fresh instance and report
    whether a violation reproduces.  Guards {!minimize} against
    shrinker bugs. *)
