(** A second, independent implementation of Algorithm 2, written in
    blocking style with effect handlers ({!Colring_engine.Blocking}).

    The code transliterates the paper's pseudocode loop directly:
    it keeps the paper's incoming queues as local counters (pulses are
    moved from the engine mailbox into them eagerly, which is
    observationally identical), runs the repeat-body, and suspends on
    [recv_any] whenever an iteration makes no progress — including the
    literal busy-wait of line 16.

    It exists for differential testing: {!Algo2} (event-driven, wake
    to fixpoint) and this module must produce identical leaders, role
    vectors, exact pulse totals and splits, and termination orders on
    every instance and schedule.  Its state is [Opaque] (a suspended
    continuation), and its counter names match {!Algo2}'s view. *)

val program : id:int -> Colring_engine.Network.pulse Colring_engine.Network.program
