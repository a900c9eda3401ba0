(** Shared validation for command-line flags.

    The cmdliner driver ([bin/colring.ml]) and the bench runner both
    parse numeric flags; these helpers give them one set of rules and
    one error shape ([Error "<flag> <value>: <reason>"]), so a bad
    [-j], [-n], [--max-deliveries], [--scheduler] name or unopenable
    [--journal] path is rejected up front instead of surfacing as a
    backtrace from whatever constructor first chokes on it. *)

val positive : flag:string -> int -> (int, string) result
(** [>= 1] — worker counts, delivery budgets, cadences. *)

val non_negative : flag:string -> int -> (int, string) result
(** [>= 0] — latencies, jitters, anything where zero means "off". *)

val positive_float : flag:string -> float -> (float, string) result
(** Finite and [> 0] — confidence parameters.  The error prints the
    value with [%g] (so [nan], [inf]). *)

val ring_size : flag:string -> int -> (int, string) result
(** [>= 2] — a ring needs two nodes for its links to exist. *)

val id_space : flag:string -> n:int -> int -> (int, string) result
(** [>= n] — an ID space of [k] values gives [n] nodes distinct IDs
    only when [k >= n] — and small enough that the largest pulse
    total, [n(4k-1)], is below [max_int]. *)

val solitude_id : flag:string -> int -> (int, string) result
(** At most 499_999 — the largest id whose Algorithm 2 solitude run,
    2·id+1 deliveries, fits one extraction's budget
    ({!Colring_lowerbound.Solitude.max_deliveries}). *)

val link_budget :
  flag:string -> value:string -> max:int -> int -> (int, string) result
(** [link_budget ~flag ~value ~max links] accepts a topology of at
    most [max] directed links (the model checker's limit).  The error
    names the flag and value that sized the topology, e.g.
    ["-n 31: 62 directed links, …"]. *)

val jobs : flag:string -> int option -> (int, string) result
(** [None] resolves to {!Colring_runtime.Pool.default_jobs};
    [Some v] must be positive. *)

val schedulers : (string * (int -> Colring_engine.Scheduler.t)) list
(** The [--scheduler] names with their factories, which take the run's
    seed (only [random] draws from it); stateful schedulers are built
    fresh per call. *)

val scheduler :
  flag:string -> string -> (int -> Colring_engine.Scheduler.t, string) result
(** The factory of a {!schedulers} name; the error names the flag and
    lists the valid names. *)

val output_file : flag:string -> string -> (out_channel, string) result
(** Open a journal file for writing; an unopenable path is an error
    naming the flag instead of a [Sys_error]. *)

val output_dir : flag:string -> string -> (string, string) result
(** An existing directory, or one created here (its parent must
    exist); anything else is an error naming the flag. *)

val exit_or : cmd:string -> ('a, string) result -> 'a
(** Unwrap, or print ["<cmd>: <msg>"] to stderr and [exit 2] — the
    conventional usage-error exit for both entry points. *)
