(** Shared validation for command-line flags.

    The cmdliner driver ([bin/colring.ml]) and the bench runner both
    parse numeric flags; these helpers give them one set of rules and
    one error shape ([Error "<flag> <value>: <reason>"]), so a bad
    [-j], [-n] or [--max-deliveries] is rejected up front instead of
    surfacing as a backtrace from whatever constructor first chokes on
    it. *)

val positive : flag:string -> int -> (int, string) result
(** [>= 1] — worker counts, delivery budgets, cadences. *)

val non_negative : flag:string -> int -> (int, string) result
(** [>= 0] — latencies, jitters, anything where zero means "off". *)

val ring_size : flag:string -> int -> (int, string) result
(** [>= 2] — a ring needs two nodes for its links to exist. *)

val id_space : flag:string -> n:int -> int -> (int, string) result
(** [>= n] — an ID space of [k] values gives [n] nodes distinct IDs
    only when [k >= n]. *)

val link_budget :
  flag:string -> value:string -> max:int -> int -> (int, string) result
(** [link_budget ~flag ~value ~max links] accepts a topology of at
    most [max] directed links (the model checker's limit).  The error
    names the flag and value that sized the topology, e.g.
    ["-n 31: 62 directed links, …"]. *)

val jobs : flag:string -> int option -> (int, string) result
(** [None] resolves to {!Colring_runtime.Pool.default_jobs};
    [Some v] must be positive. *)

val exit_or : cmd:string -> ('a, string) result -> 'a
(** Unwrap, or print ["<cmd>: <msg>"] to stderr and [exit 2] — the
    conventional usage-error exit for both entry points. *)
