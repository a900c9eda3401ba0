(** Pulse-circulation programs for the graph simulator.

    {!algo3_deg2} is the paper's Algorithm 3, verbatim, expressed as a
    graph program for 2-regular topologies — running it on
    {!Gtopology.ring} cross-validates {!Gnetwork} against the dedicated
    ring engine (identical totals, leader and orientation).

    {!rotor} is an *exploratory* generalization for the paper's closing
    open question (leader election on general 2-edge-connected
    networks): pulses received on port [p] are re-emitted on port
    [(p+1) mod degree] — on degree-2 nodes this degenerates to exactly
    the ring relay rule — and a node absorbs a pulse whenever its
    received count reaches a multiple of its ID, so the [n·degree]
    start-up pulses can all eventually be deleted.  It is not a leader
    election: the model checker's [ablation:rotor] target
    ([Colring_mc.Spec.rotor_ablation], bench E14) finds a schedule
    that quiesces with two Leaders.  {!Gelection} is the walk election
    that does solve the question. *)

val algo3_deg2 :
  scheme:Colring_core.Algo3.id_scheme ->
  id:int ->
  Colring_engine.Network.pulse Gnetwork.program
(** Raises at start-up if the node's degree is not 2.  Counter names
    match {!Colring_core.Algo3}. *)

val rotor : id:int -> Colring_engine.Network.pulse Gnetwork.program
(** Counters: ["id"], ["rho"], ["sigma"], ["absorbed"]. *)
