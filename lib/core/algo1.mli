(** Algorithm 1 — quiescently stabilizing leader election on oriented
    rings (Section 3.1).

    Each node sends one clockwise pulse at start-up and then relays
    every received clockwise pulse, except the single time its received
    count [ρcw] equals its own ID, at which point it (tentatively)
    declares itself Leader and absorbs the pulse.  Any later pulse
    reverts it to Non-Leader.  The network stabilizes with every node
    having sent and received exactly [ID_max] pulses (Corollary 13) and
    the unique node of maximal ID in the Leader state.  Nodes never
    terminate.

    The register file's view, in order: ["id"], ["rho_cw"],
    ["sigma_cw"]; one hidden cell holds the role last published. *)

val program : id:int -> Colring_engine.Network.pulse Colring_engine.Network.program
(** The per-node program; run it on an {!Colring_engine.Topology.oriented}
    ring.  [id] must be positive. *)

val total_pulses : n:int -> id_max:int -> int
(** Alias of {!Formulas.algo1_total}. *)
