(** Pluggable telemetry sinks.

    A {!t} is the one observability surface of the simulator: it
    receives the event stream that {!Trace} used to capture (sends,
    deliveries, consumptions, decisions, termination), the counter
    updates that {!Metrics} aggregates, and run-lifecycle records
    (run start, periodic counter snapshots, run end, result-table
    rows).  Everything that used to be a special case — the trace
    buffer of the lower-bound machinery, the engine counters, the
    bench table printers — is one of the four implementations below:

    - {!null}: ignores everything.  The default.  The engine's
      steady-state hot path stays allocation-free under it.
    - {!memory}: records events into a {!Trace.t}, exposed via
      {!trace} — the lower-bound machinery's buffer.
    - {!counters}: drives a {!Metrics.t}.  The graph engine tees one
      under the user's sink; the ring engines ({!Network}, {!Flock})
      count inline instead and call the user's sink directly, counters
      first, so every engine keeps the same order: counters move,
      then the sink sees the event.
    - {!jsonl}: writes one self-describing JSON object per
      event/record — the run journal behind [--journal FILE].

    Sinks are first-class records of callbacks, so a custom consumer
    is just a record literal (start from {!null} with a [with]
    expression).  Callbacks take immediate arguments only — no event
    value is materialised — which is what keeps {!null} free.

    Sinks are not synchronised: under {!Colring_runtime.Pool} each
    domain must own its sink ({!Colring_harness.Sweep.election} gives
    every sweep cell a private buffered jsonl sink and concatenates
    the chunks in cell-index order, so journals are byte-identical
    for every domain count). *)

(** A journal field value.  Journals are flat: every record is a list
    of named scalars. *)
type value = Bool of bool | Int of int | Float of float | String of string

type t = {
  name : string;  (** For diagnostics ("null", "memory", "a+b", …). *)
  enabled : bool;
      (** [false] only for {!null} (and tees of nulls).  Producers
          check this before building argument lists for the record
          callbacks ([on_run_start] and friends), so a null sink costs
          one branch and zero allocation.  Per-event callbacks do not
          consult it: the engines skip them for {!null} itself
          (physical equality) and call them on every other sink. *)
  on_send : node:int -> port:int -> seq:int -> link:int -> cw:bool -> unit;
      (** [node] emitted pulse [seq] from its local port (as an
          integer index — ring engines pass [Port.index], general
          graphs their native port number) onto directed link [link];
          [cw] is the ground-truth direction when the topology defines
          one ([false] on general graphs, which have none). *)
  on_deliver : node:int -> port:int -> seq:int -> unit;
      (** Pulse [seq] moved from the channel into [node]'s mailbox. *)
  on_drop : node:int -> port:int -> seq:int -> unit;
      (** Pulse [seq] arrived at [node] after it terminated and was
          discarded — a quiescence violation.  {!Trace} never recorded
          these; {!memory} ignores them for compatibility. *)
  on_consume : node:int -> port:int -> unit;
      (** The program at [node] consumed one pulse from the mailbox of
          its local [port]. *)
  on_wake : node:int -> unit;
      (** [node]'s program is about to run (start-up or delivery). *)
  on_decide : node:int -> output:Output.t -> unit;
      (** The program revised its output. *)
  on_terminate : node:int -> unit;
  on_run_start : (string * value) list -> unit;
      (** Run metadata: algorithm, n, seed, workload, scheduler, … *)
  on_snapshot : step:int -> (string * int) list -> unit;
      (** Periodic counter snapshot — [step] is the delivery count,
          the list is {!Metrics.to_assoc} (stable schema). *)
  on_run_end : (string * value) list -> unit;
      (** Final measurements and verdicts (an {!Colring_core.Election}
          report, serialised field by field). *)
  on_row : table:string -> (string * value) list -> unit;
      (** One row of a named result table (the bench's E-tables). *)
  flush : unit -> unit;
      (** Force buffered output down to the underlying writer.  Runners
          call this at run end; it is a no-op for unbuffered sinks. *)
  buffer : Trace.t option;
      (** The event buffer, for {!memory} sinks ({!tee} propagates the
          first one).  [None] for the other implementations. *)
}

val null : t
(** Ignores everything; [enabled = false].  The default everywhere. *)

val memory : unit -> t
(** Records Send/Deliver/Consume/Decide/Terminate events into a fresh
    {!Trace.t} (retrieve it with {!trace}).  Drops, wakes and
    lifecycle records are ignored.  Ring engines only: {!Trace}
    events name ports as {!Port.t}, so a port index outside [{0,1}]
    (a general-graph node of higher degree) raises
    [Invalid_argument]. *)

val counters : Metrics.t -> t
(** Routes events into a {!Metrics.t}: sends, deliveries, consumes,
    wakes, and post-termination drops update the corresponding
    counters.  Lifecycle records are ignored.  The graph engine tees
    this under the user's sink; its updates are exactly the stores the
    ring engines make inline. *)

val jsonl : ?events:bool -> emit:(string -> unit) -> unit -> t
(** [jsonl ~emit ()] formats every event/record as one self-describing
    JSON object — [{"type":"send","node":0,…}] — and passes the line
    (without the trailing newline) to [emit].  [events:false] (default
    [true]) suppresses the per-event lines and keeps only lifecycle
    records (run_start/snapshot/run_end/row) — what sweeps want, since
    a full event journal is as long as the run.  Ports appear as
    integer indices; every line is parseable by [Bench_io.of_string]. *)

val jsonl_buffer : ?events:bool -> Buffer.t -> t
(** {!jsonl} appending ["line\n"] to a buffer. *)

val jsonl_channel : ?events:bool -> out_channel -> t
(** {!jsonl} writing through an internal buffer to a channel; lines
    reach the channel in 64 KiB batches and on {!field-flush}. *)

val with_jsonl_channel : ?events:bool -> string -> (t -> 'a) -> 'a
(** [with_jsonl_channel path f] opens [path], runs [f] with a
    {!jsonl_channel} sink over it, and — whether [f] returns or raises
    — flushes the sink's internal buffer and closes the channel before
    propagating the outcome.  This is the only safe way to journal a
    run that may raise (e.g. [Colring_fastsim.Driver.run] past its
    delivery budget): the buffered tail of the journal survives the
    exception, so the file is always a valid, parseable prefix of the
    full journal. *)

val tee : t -> t -> t
(** [tee a b] forwards everything to [a] then [b].  Returns the other
    sink unchanged when either side is {!null}. *)

val trace : t -> Trace.t option
(** The {!field-buffer} of [t] — the recorded trace of a {!memory}
    sink (or of the first memory component of a tee). *)

val escape_json : Buffer.t -> string -> unit
(** JSON string-escaping shared with the jsonl formatter, for callers
    that assemble journal lines of their own. *)
