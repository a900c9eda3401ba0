(** Sequential composition of content-oblivious programs — the
    mechanism behind Corollary 5 (Section 1.1).

    [chain first second] runs [first] until it would terminate, then
    switches the node to [second first_output] *instead of*
    terminating, exactly as the paper describes ("replacing the act of
    termination with the act of switching to the second algorithm").

    Correct message-algorithm attribution needs [first] to terminate
    quiescently *and in order*, with the designated initiator of
    [second] switching last — Algorithm 2 provides precisely that: the
    leader terminates last, so when it sends the first pulse of the
    second algorithm every other node has already switched. *)

val chain :
  'm Colring_engine.Network.program ->
  (Colring_engine.Output.t -> 'm Colring_engine.Network.program) ->
  'm Colring_engine.Network.program
(** The second program is constructed at switch time from the output
    the first program decided on.  The first program's [terminate] is
    intercepted; the second program's [terminate] really terminates the
    node.  The chain's state is [Opaque] (replay-only): its view
    concatenates both programs' counters (prefixed with [a.] / [b.]). *)
