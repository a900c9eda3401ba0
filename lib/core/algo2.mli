(** Algorithm 2 — quiescently terminating leader election on oriented
    rings (Section 3.2, Theorem 1).

    Two copies of Algorithm 1 run in parallel: one over the clockwise
    channel (started at initialization) and one over the
    counterclockwise channel (started at a node once its clockwise
    count reaches its ID, which makes the CCW instance lag behind the
    CW one).  The event [ρcw = ID = ρccw] occurs uniquely at the node
    of maximal ID; that node then emits one extra counterclockwise
    pulse.  Every node that observes [ρccw > ρcw] for the first time
    forwards the extra pulse and terminates; the pulse returns to the
    leader, which terminates last, without forwarding.

    Total pulses sent, on every schedule: [n * (2 * ID_max + 1)]
    ([n * ID_max] clockwise, [n * (ID_max + 1)] counterclockwise).

    The register file's view, in order: ["id"], ["rho_cw"],
    ["sigma_cw"], ["rho_ccw"], ["sigma_ccw"], ["term_initiated"]
    (0 or 1); three hidden cells hold the current role, the role last
    published and the finished flag. *)

val program : id:int -> Colring_engine.Network.pulse Colring_engine.Network.program
(** The per-node program; run it on an oriented ring.  [id] must be
    positive and unique network-wide. *)

val total_pulses : n:int -> id_max:int -> int
(** Alias of {!Formulas.algo2_total}. *)
