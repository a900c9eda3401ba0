(* Transport backend tests: the fault model's determinism, schedule
   recording fidelity on the simulator, and the cross-backend
   equivalence matrix — every backend's recorded schedule must replay
   on the simulator byte-identically (journals included), fault
   injection and all.  Plus the error paths: raising node programs
   must leave the domains pool reusable, a raising program, a child
   that dies mid-run and an exhausted budget must leave no socket
   child behind, and budget exhaustion must not wedge any backend. *)

open Colring_engine
module Election = Colring_core.Election
module Ids = Colring_core.Ids
module Rng = Colring_stats.Rng
module Backend = Colring_transport.Backend

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let algos =
  [
    ("algo1", Election.Algo1);
    ("algo2", Election.Algo2);
    ("algo3", Election.Algo3 Colring_core.Algo3.Improved);
  ]

let topo_for algo n =
  match algo with
  | Election.Algo1 | Election.Algo2 -> Topology.oriented n
  | _ -> Topology.random_non_oriented (Rng.create ~seed:(77 + n)) n

(* ------------------------------------------------------------------ *)
(* Fault model *)

let test_delay_us_bounds () =
  let f = Transport.faults ~seed:5 ~latency:100 ~jitter:40 () in
  for link = 0 to 5 do
    for k = 0 to 50 do
      let d = Transport.delay_us f ~link ~k in
      checkb "lower" true (d >= 100);
      checkb "upper" true (d <= 140)
    done
  done;
  (* Pure hash: same draw for the same coordinates, different seeds
     give a different pattern somewhere. *)
  checki "pure" (Transport.delay_us f ~link:1 ~k:9)
    (Transport.delay_us f ~link:1 ~k:9);
  let g = Transport.faults ~seed:6 ~latency:100 ~jitter:40 () in
  let differs = ref false in
  for k = 0 to 63 do
    if Transport.delay_us f ~link:1 ~k <> Transport.delay_us g ~link:1 ~k then
      differs := true
  done;
  checkb "seed matters" true !differs;
  (* The draw covers the whole range: every delay from latency to
     latency + jitter occurs, and jitter 0 means the latency alone. *)
  let h = Transport.faults ~seed:7 ~latency:10 ~jitter:3 () in
  let seen = Array.make 4 false in
  for k = 0 to 199 do
    let d = Transport.delay_us h ~link:2 ~k in
    checkb "in range" true (d >= 10 && d <= 13);
    seen.(d - 10) <- true
  done;
  checkb "every delay in [10, 13] drawn" true (Array.for_all Fun.id seen);
  checki "jitter 0" 10
    (Transport.delay_us (Transport.faults ~latency:10 ~jitter:0 ()) ~link:2
       ~k:5);
  checkb "invalid rejected" true
    (match Transport.faults ~latency:(-1) ~jitter:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_jittered_deterministic () =
  let faults = Transport.faults ~seed:3 ~latency:50 ~jitter:200 () in
  let run () =
    let t = Transport.sim () in
    t.Transport.run ~seed:11 ~faults (Topology.oriented 5) (fun v ->
        Election.program_of Election.Algo2 ~id:(v + 1))
  in
  let a = run () and b = run () in
  checkb "same schedule twice" true (Transport.equivalent a b);
  checkb "jitter actually reorders" true
    (let plain =
       (Transport.sim ()).Transport.run ~seed:11 (Topology.oriented 5)
         (fun v -> Election.program_of Election.Algo2 ~id:(v + 1))
     in
     not (Array.for_all2 Int.equal plain.Transport.schedule a.Transport.schedule))

(* [equivalent] must see every outcome field it claims to compare: a
   trace that differs from a real one in any single field is not
   equivalent to it. *)
let test_equivalent_sees_each_field () =
  let a =
    (Transport.sim ()).Transport.run ~seed:2 (Topology.oriented 4) (fun v ->
        Election.program_of Election.Algo2 ~id:(v + 1))
  in
  checkb "reflexive" true (Transport.equivalent a a);
  let open Transport in
  List.iter
    (fun (field, b) -> checkb field false (Transport.equivalent a b))
    [
      ("n", { a with n = a.n + 1 });
      ("outputs", { a with outputs = Array.sub a.outputs 1 (a.n - 1) });
      ("sends", { a with sends = a.sends + 1 });
      ("deliveries", { a with deliveries = a.deliveries + 1 });
      ("drops", { a with drops = a.drops + 1 });
      ("quiescent", { a with quiescent = not a.quiescent });
      ("all_terminated", { a with all_terminated = not a.all_terminated });
      ( "termination_order",
        { a with termination_order = List.rev a.termination_order } );
      ("schedule", { a with schedule = Array.append a.schedule [| 0 |] });
    ]

(* ------------------------------------------------------------------ *)
(* Replay fidelity on the simulator *)

let journal_of_replay (trace : Transport.trace) algorithm ~topo ~ids ~seed =
  let buf = Buffer.create 4096 in
  let sink = Sink.jsonl_buffer buf in
  let sched =
    Scheduler.of_schedule ~name:trace.Transport.scheduler
      trace.Transport.schedule
  in
  let _report =
    Election.run_report ~seed ~sink algorithm ~topo ~ids ~sched
  in
  Buffer.contents buf

let test_sim_live_journal_equals_replay_journal () =
  (* The sim backend's live run, journaled directly, must byte-match
     the journal of its recorded schedule replayed via of_schedule:
     recording is faithful and ?name keeps run_start identical. *)
  let n = 6 and seed = 4 in
  let topo = Topology.oriented n in
  let ids = Ids.dense (Rng.create ~seed:9) ~n in
  let live_buf = Buffer.create 4096 in
  let sched, recorded = Transport.recording Scheduler.fifo in
  let _ =
    Election.run_report ~seed ~sink:(Sink.jsonl_buffer live_buf) Election.Algo2
      ~topo ~ids ~sched
  in
  let trace =
    {
      Transport.backend = "sim";
      scheduler = "fifo-cw-priority";
      n;
      schedule = recorded ();
      outputs = [||];
      sends = 0;
      deliveries = 0;
      drops = 0;
      quiescent = true;
      all_terminated = true;
      exhausted = false;
      termination_order = [];
    }
  in
  let replay_journal = journal_of_replay trace Election.Algo2 ~topo ~ids ~seed in
  checks "live journal = replay journal" (Buffer.contents live_buf)
    replay_journal

(* ------------------------------------------------------------------ *)
(* The cross-backend matrix *)

let matrix_cell ?faults (aname, algo) n backend =
  let seed = 13 + n in
  let topo = topo_for algo n in
  let ids = Ids.dense (Rng.create ~seed:(100 + n)) ~n in
  let label what =
    Printf.sprintf "%s n=%d %s %s" aname n (Backend.name backend) what
  in
  let buf = Buffer.create 4096 in
  let r =
    Backend.elect ~seed ?faults ~sink:(Sink.jsonl_buffer buf) backend algo
      ~topo ~ids
  in
  checkb (label "verified") true r.Backend.verified;
  checkb (label "ok") true (Election.ok r.Backend.report);
  checkb (label "quiescent trace") true r.Backend.live.Transport.quiescent;
  (* Schedule-replay journal byte-identity: replaying the recorded
     schedule again produces the same journal bytes Backend.elect
     emitted. *)
  let again =
    journal_of_replay r.Backend.live algo ~topo ~ids ~seed
  in
  checks (label "replay journal stable") (Buffer.contents buf) again;
  r

let matrix_ns = [ 3; 4; 8 ]

(* Unix.fork is forbidden for the rest of the process once any domain
   has ever been spawned (OCaml 5), so every socket cell must run
   before the first domains cell.  Alcotest runs test cases
   sequentially in registration order, which makes the group order at
   the bottom of this file load-bearing: the "socket" group runs all
   fork-based cells and parks their results here; the "matrix" group
   then runs the domain-spawning cells and compares against them. *)
let socket_results : (string, Backend.elect_result) Hashtbl.t =
  Hashtbl.create 16

let cell_key aname n = Printf.sprintf "%s:%d" aname n

let test_socket_matrix () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun n ->
          let r = matrix_cell (aname, algo) n (Backend.Socket { tcp = false }) in
          Hashtbl.replace socket_results (cell_key aname n) r)
        matrix_ns)
    algos

let jitter_faults = Transport.faults ~seed:21 ~latency:120 ~jitter:400 ()

let test_socket_matrix_jitter () =
  (* Jitter-injected socket cells (the issue's acceptance bar asks for
     schedule-replay byte-identity on a jittered socket run
     specifically).  Latencies are microseconds on the real backends —
     keep them small so the matrix stays fast. *)
  List.iter
    (fun (aname, algo) ->
      ignore
        (matrix_cell ~faults:jitter_faults (aname, algo) 4
           (Backend.Socket { tcp = false })))
    algos

let test_cross_backend_matrix () =
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun n ->
          let base = matrix_cell (aname, algo) n Backend.Sim in
          let domains = matrix_cell (aname, algo) n Backend.Domains in
          let socket =
            match Hashtbl.find_opt socket_results (cell_key aname n) with
            | Some r -> r
            | None ->
                Alcotest.fail
                  (Printf.sprintf
                     "%s n=%d: socket cell missing — the socket group must run \
                      first"
                     aname n)
          in
          (* Same inputs, same algorithm: every backend agrees on the
             outputs and the schedule-independent totals. *)
          List.iter
            (fun r ->
              checkb
                (Printf.sprintf "%s n=%d outputs agree" aname n)
                true
                (Array.for_all2 Output.equal base.Backend.live.Transport.outputs
                   r.Backend.live.Transport.outputs);
              checki
                (Printf.sprintf "%s n=%d sends agree" aname n)
                base.Backend.live.Transport.sends
                r.Backend.live.Transport.sends)
            [ domains; socket ])
        matrix_ns)
    algos

let test_cross_backend_matrix_jitter () =
  (* The same honesty check under live fault injection on the
     remaining backends (socket ran in the socket group). *)
  List.iter
    (fun (aname, algo) ->
      List.iter
        (fun backend ->
          ignore (matrix_cell ~faults:jitter_faults (aname, algo) 4 backend))
        [ Backend.Sim; Backend.Domains ])
    algos

let test_socket_tcp_smoke () =
  let n = 4 in
  let topo = Topology.oriented n in
  let ids = Ids.dense (Rng.create ~seed:2) ~n in
  let faults = Transport.faults ~seed:1 ~latency:100 ~jitter:300 () in
  let r =
    Backend.elect ~seed:5 ~faults (Backend.Socket { tcp = true })
      Election.Algo2 ~topo ~ids
  in
  checkb "tcp verified" true r.Backend.verified;
  checkb "tcp ok" true (Election.ok r.Backend.report);
  checks "tcp backend name" "socket-tcp" r.Backend.live.Transport.backend

(* ------------------------------------------------------------------ *)
(* Socket failure paths, on both socket variants: a node program that
   raises, a child that dies mid-run, an exhausted budget.  Each case
   runs under a timeout guard; afterwards the coordinator must have
   reaped every child (waitpid finds none) and a following election
   on the same variant must succeed.  The 120 s deadline path is left
   untested: exercising it takes 120 s. *)

exception Timed_out

let with_timeout ~seconds f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

let socket_variants =
  [ Backend.Socket { tcp = false }; Backend.Socket { tcp = true } ]

let algo2_program v = Election.program_of Election.Algo2 ~id:(v + 1)

(* Algorithm 2 on four nodes, except that node 2 runs [on_wake] at its
   first wake, after the start-up pulses are in flight. *)
let with_node2 on_wake v =
  let p = algo2_program v in
  if v <> 2 then p
  else
    {
      p with
      Network.wake =
        (fun api ->
          on_wake ();
          p.Network.wake api);
    }

let socket_case spec what run check =
  let label = Backend.name spec ^ " " ^ what in
  with_timeout ~seconds:60 (fun () -> check label (run ()));
  checkb (label ^ ": no child left") true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false);
  let n = 4 in
  let r =
    with_timeout ~seconds:60 (fun () ->
        Backend.elect spec Election.Algo2 ~topo:(Topology.oriented n)
          ~ids:(Ids.dense (Rng.create ~seed:3) ~n))
  in
  checkb (label ^ ": next election verified") true r.Backend.verified;
  checkb (label ^ ": next election ok") true (Election.ok r.Backend.report)

let fails_with label ~suffix = function
  | Ok _ -> Alcotest.failf "%s: the run returned" label
  | Error msg ->
      checkb
        (Printf.sprintf "%s: %S ends with %S" label msg suffix)
        true
        (String.ends_with ~suffix msg)

let live spec ?max_deliveries make_program () =
  let t = Backend.transport spec in
  match t.Transport.run ?max_deliveries (Topology.oriented 4) make_program with
  | trace -> Ok trace
  | exception Failure msg -> Error msg

let test_socket_failure_paths () =
  List.iter
    (fun spec ->
      socket_case spec "raising program"
        (live spec (with_node2 (fun () -> failwith "node 2")))
        (fails_with ~suffix:"a node program raised");
      socket_case spec "child killed mid-run"
        (live spec
           (with_node2 (fun () -> Unix.kill (Unix.getpid ()) Sys.sigkill)))
        (fails_with ~suffix:"node 2 exited early");
      socket_case spec "exhausted budget"
        (live spec ~max_deliveries:5 algo2_program)
        (fun label -> function
          | Error msg -> Alcotest.failf "%s: %s" label msg
          | Ok trace ->
              checkb (label ^ ": exhausted") true trace.Transport.exhausted;
              checkb (label ^ ": not quiescent") false
                trace.Transport.quiescent;
              checkb (label ^ ": budget respected") true
                (trace.Transport.deliveries <= 5)))
    socket_variants

(* ------------------------------------------------------------------ *)
(* Error paths *)

exception Boom

let raising_program =
  {
    Network.state = Opaque (fun () -> []);
    Network.start = (fun _ -> raise Boom);
    wake = (fun _ -> ());
  }

let test_domains_raise_then_reuse () =
  let topo = Topology.oriented 4 in
  (* A raising node program propagates out of the domains backend
     without wedging any node loop... *)
  checkb "raise propagates" true
    (match
       Colring_transport.Domains.run topo (fun v ->
           if v = 2 then raising_program
           else Election.program_of Election.Algo2 ~id:(v + 1))
     with
    | exception Boom -> true
    | _ -> false);
  (* ...and the very next run on the same pool machinery succeeds. *)
  let trace =
    Colring_transport.Domains.run topo (fun v ->
        Election.program_of Election.Algo2 ~id:(v + 1))
  in
  checkb "reuse after raise" true trace.Transport.quiescent

let test_domains_budget_exhaustion () =
  let topo = Topology.oriented 4 in
  let trace =
    Colring_transport.Domains.run ~max_deliveries:5 topo (fun v ->
        Election.program_of Election.Algo2 ~id:(v + 1))
  in
  checkb "exhausted" true trace.Transport.exhausted;
  checkb "not quiescent" false trace.Transport.quiescent;
  checkb "budget respected" true (trace.Transport.deliveries <= 5)

let test_backend_of_name () =
  checkb "sim" true
    (match Backend.of_name "sim" with Ok Backend.Sim -> true | _ -> false);
  checkb "socket-tcp" true
    (match Backend.of_name "socket-tcp" with
    | Ok (Backend.Socket { tcp = true }) -> true
    | _ -> false);
  checkb "unknown is Error" true
    (match Backend.of_name "carrier-pigeon" with Error _ -> true | Ok _ -> false)

let () =
  Alcotest.run "colring-transport"
    [
      ( "faults",
        [
          Alcotest.test_case "delay_us bounds and purity" `Quick
            test_delay_us_bounds;
          Alcotest.test_case "jittered scheduler deterministic" `Quick
            test_jittered_deterministic;
          Alcotest.test_case "equivalent sees each field" `Quick
            test_equivalent_sees_each_field;
        ] );
      ( "replay",
        [
          Alcotest.test_case "sim live journal = replay journal" `Quick
            test_sim_live_journal_equals_replay_journal;
        ] );
      (* Fork-based cells first: Unix.fork is permanently unavailable
         once the "matrix"/"errors" groups spawn their first domain. *)
      ( "socket",
        [
          Alcotest.test_case "socket matrix cells" `Slow test_socket_matrix;
          Alcotest.test_case "socket matrix cells under jitter" `Slow
            test_socket_matrix_jitter;
          Alcotest.test_case "socket tcp smoke" `Slow test_socket_tcp_smoke;
          Alcotest.test_case "socket failure paths" `Slow
            test_socket_failure_paths;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "cross-backend equivalence" `Slow
            test_cross_backend_matrix;
          Alcotest.test_case "cross-backend equivalence under jitter" `Slow
            test_cross_backend_matrix_jitter;
        ] );
      ( "errors",
        [
          Alcotest.test_case "domains raise then reuse" `Quick
            test_domains_raise_then_reuse;
          Alcotest.test_case "domains budget exhaustion" `Quick
            test_domains_budget_exhaustion;
          Alcotest.test_case "backend of_name" `Quick test_backend_of_name;
        ] );
    ]
