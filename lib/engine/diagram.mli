(** ASCII space-time diagrams of executions.

    One row per delivery (and per termination/decision), one column per
    node; a [>] is a pulse arriving that travelled clockwise (it came
    in on the node's [Port_0] — meaningful on oriented rings), [<] one
    that travelled counterclockwise, [L]/[l] a node deciding
    Leader/Non-Leader, [X] a node terminating.  Handy for eyeballing
    how Algorithm 2's two instances chase each other; the CLI's
    [elect --diagram] prints one. *)

val render : Trace.t -> n:int -> string
(** [render trace ~n] with at most 500 event rows; a trailing line
    reports how many more were elided. *)

val legend : string
