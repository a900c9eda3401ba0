(** Backend selection and the cross-checked election driver.

    This is the glue [colring elect --backend] stands on: pick a
    transport, run the election live on it, then re-run the recorded
    schedule through the simulator via
    {!Colring_engine.Scheduler.of_schedule} — the replay produces the
    journal and the {!Colring_core.Election.report}, and
    {!elect_result.verified} says whether the replay reproduced the
    live run exactly ({!Colring_engine.Transport.equivalent}).  An
    honest backend always verifies; a lying one cannot, because the
    simulator is the single source of semantics. *)

type spec = Sim | Domains | Socket of { tcp : bool }

val name : spec -> string
val all : spec list

val of_name : string -> (spec, string) result
(** ["sim"], ["domains"], ["socket"], ["socket-tcp"]; [Error] with the
    expected spellings otherwise. *)

val transport :
  ?sched:Colring_engine.Scheduler.t -> spec -> Colring_engine.Transport.t
(** [sched] only drives the fault-free [Sim] backend (the concurrent
    backends realise their own schedules). *)

type elect_result = {
  report : Colring_core.Election.report;
      (** Measured on the simulator replay of the live schedule. *)
  live : Colring_engine.Transport.trace;  (** The backend's own run. *)
  verified : bool;
      (** Replay reproduced outputs, counters, termination order and
          schedule — the mechanical cross-backend honesty check. *)
}

val elect :
  ?seed:int ->
  ?max_deliveries:int ->
  ?faults:Colring_engine.Transport.faults ->
  ?sink:Colring_engine.Sink.t ->
  ?snapshot_every:int ->
  ?sched:Colring_engine.Scheduler.t ->
  spec ->
  Colring_core.Election.algorithm ->
  topo:Colring_engine.Topology.t ->
  ids:int array ->
  elect_result
(** Runs the election live on the chosen backend, then replays the
    recorded schedule through {!Colring_core.Election.run} (which
    emits the journal to [sink], workload ["-"], and computes the
    report).  With [spec = Sim] and no faults this is the ordinary
    simulator run, journaled identically to the direct path — plus
    the verification pass. *)
