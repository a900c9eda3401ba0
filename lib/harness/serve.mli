(** The [colring serve] job server: spec lines in, one result line per
    job out, in input order.

    Input is read in waves: a wave is every complete line one [read]
    call returns.  A wave's jobs run as one {!Batch.run} on the
    server's long-lived pool, each job on its domain's warm core — each
    pool domain keeps its cores from wave to wave — and its
    replies are handed to [write] in one piece.  A job's reply and
    journal chunk depend only on its line, never on the wave it came
    in or the domain that ran it, so output is byte-identical for
    every pool size and every way the input is chunked. *)

val result_line : Batch.spec -> Colring_core.Election.report -> string
(** [ok|FAIL algo=… n=… seed=… leader=… sends=… deliveries=…], without
    the newline. *)

val run :
  pool:Colring_runtime.Pool.t ->
  ?journal:(string -> unit) ->
  sched:(int -> Colring_engine.Scheduler.t) ->
  read:(bytes -> int -> int -> int) ->
  write:(string -> unit) ->
  unit ->
  int
(** [run ~pool ~sched ~read ~write ()] serves until [read] returns 0
    (end of input) and returns the exit status: 0, or 1 when any line
    was bad, failed its verdicts, or raised.

    [read buf off len] fills [buf] like [Stdlib.input]; a final line
    without a newline is served at end of input.  Blank and comment
    lines get no reply; an unparsable line gets [error: <msg>].
    [write] receives each wave's replies, newline-terminated, once per
    wave.  [journal] receives each job's JSONL chunk in input order.
    [sched] builds a job's scheduler from its seed.

    A job that raises is answered [error: <exception>] and serving
    goes on: its wave is re-run one job at a time in the calling
    domain, so the other lines of the wave are answered normally. *)
