open Colring_engine
module Election = Colring_core.Election

(* Domain-safety contract (enforced by the shared-state lint,
   tools/lint/lint_domain.ml): this orchestrator owns no cross-domain
   state — it runs the live backend, then replays on the calling
   domain.  All real sharing lives in domains.ml behind its
   shared.sexp entry (atomic pulse counters, mutex-guarded schedule
   recorder, owner-indexed result arrays); the socket backend shares
   nothing but file descriptors across processes. *)

type spec = Sim | Domains | Socket of { tcp : bool }

let name = function
  | Sim -> "sim"
  | Domains -> "domains"
  | Socket { tcp = false } -> "socket"
  | Socket { tcp = true } -> "socket-tcp"

let all = [ Sim; Domains; Socket { tcp = false }; Socket { tcp = true } ]

let of_name s =
  match s with
  | "sim" -> Ok Sim
  | "domains" -> Ok Domains
  | "socket" -> Ok (Socket { tcp = false })
  | "socket-tcp" -> Ok (Socket { tcp = true })
  | _ ->
      Error
        (Printf.sprintf
           "unknown backend %S (expected one of: %s)" s
           (String.concat ", " (List.map name all)))

let transport ?sched = function
  | Sim -> Transport.sim ?sched ()
  | Domains -> Domains.transport ()
  | Socket { tcp } -> Socket.transport ~tcp ()

type elect_result = {
  report : Election.report;
  live : Transport.trace;
  verified : bool;
}

let elect ?(seed = 0) ?max_deliveries ?(faults = Transport.no_fault)
    ?(sink = Sink.null) ?snapshot_every ?sched spec algorithm ~topo
    ~ids =
  let make_program v = Election.program_of algorithm ~id:ids.(v) in
  let t = transport ?sched spec in
  let live = t.Transport.run ~seed ?max_deliveries ~faults topo make_program in
  (* The journal and report come from the schedule replayed on the
     simulator — the one set of semantics every backend answers to.
     Recording the replay's own picks closes the loop: [verified]
     means the replay reproduced outputs, counters, termination order
     and the schedule itself. *)
  let replay_sched, recorded =
    Transport.recording
      (Scheduler.of_schedule ~name:live.Transport.scheduler
         live.Transport.schedule)
  in
  let report, net =
    Election.run ~seed ?max_deliveries ~sink ?snapshot_every
      algorithm ~topo ~ids ~sched:replay_sched
  in
  let replayed =
    {
      live with
      Transport.schedule = recorded ();
      outputs = Network.outputs net;
      sends = report.Election.sends;
      deliveries = report.Election.deliveries;
      drops = report.Election.post_term_deliveries;
      quiescent = report.Election.quiescent;
      all_terminated = report.Election.all_terminated;
      exhausted = report.Election.exhausted;
      termination_order = Network.termination_order net;
    }
  in
  { report; live; verified = Transport.equivalent live replayed }
