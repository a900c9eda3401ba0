(* The repository benchmark's entry point (run it through run.py,
   which builds this and the colring binary first).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--colring PATH] [--rev REV]
     bench.exe --self-test [--colring PATH]

   With --trace 0 the named workload runs untraced and reports the
   end-to-end metrics.  With --trace 1 every layer group runs, each on
   its home workload's inputs from the same seed, and reports the
   per-layer metrics.  The last line of standard output is one JSON
   object: correct, attempted, failed, metrics. *)

open Common

let workloads =
  [ "elect-ring256"; "walk-graph128"; "serve-mix"; "check-algo3-n5"; "backend-live" ]

let run_workload ~colring ~seed ~seconds = function
  | "elect-ring256" -> Ring.run ~seed ~seconds ()
  | "walk-graph128" -> Graph.run ~seed ~seconds ()
  | "serve-mix" -> Serve.run ~colring ~seed ~seconds ()
  | "check-algo3-n5" -> Check.run ~seconds ()
  | "backend-live" -> Live.run ~seed ~seconds ()
  | other -> invalid_arg ("unknown workload " ^ other)

(* Every layer group, each starting from a compacted heap, in an order
   that forks before any domain is spawned in this process: the serve
   harness, transport (the socket backend forks), the two engines, then
   the model checker's pool. *)
let run_trace ~colring ~seed ~seconds =
  let share = seconds /. 5. in
  let groups =
    [
      (fun () -> Serve.trace ~colring ~seed ~seconds:share);
      (fun () -> Live.trace ~seed ~seconds:share);
      (fun () -> Ring.trace ~seed ~seconds:share);
      (fun () -> Graph.trace ~seed ~seconds:share);
      (fun () -> Check.trace ~seconds:share);
    ]
  in
  List.fold_left
    (fun r g ->
      Gc.compact ();
      let attempted, failed, metrics = g () in
      {
        attempted = r.attempted + attempted;
        failed = r.failed + failed;
        metrics = r.metrics @ metrics;
      })
    { attempted = 0; failed = 0; metrics = [] }
    groups

let metric_value name metrics =
  (List.find (fun m -> m.name = name) metrics).value

(* The benchmark's own checks: each workload for a few operations, the
   failure gates tripping on a corrupted serve reply, a wrong pinned
   state count and a socket election after a domain spawn, and the
   engine layers summing to the untraced time within the residual. *)
let self_test ~colring ~seed =
  let all_ok = ref true in
  let expect what ok =
    say "self-test  %-58s %s" what (if ok then "PASS" else "FAIL");
    if not ok then all_ok := false
  in
  let clean (r : result) = r.failed = 0 && r.attempted > 0 in
  expect "elect-ring256 runs a round cleanly"
    (clean (Ring.run ~seed ~seconds:0. ~max_ops:2 ()));
  expect "walk-graph128 runs a round cleanly"
    (clean (Graph.run ~seed ~seconds:0. ~max_ops:2 ()));
  expect "serve-mix runs a short session cleanly"
    (clean (Serve.run ~colring ~seed ~seconds:0.5 ()));
  expect "serve-mix counts one corrupted reply as failed"
    ((Serve.run ~corrupt:5 ~colring ~seed ~seconds:0.5 ()).failed = 1);
  expect "backend-live runs a round cleanly"
    (clean (Live.run ~seed ~seconds:0. ~max_ops:2 ()));
  let residual_ok (_, failed, metrics) prefix =
    failed = 0
    && metric_value (prefix ^ "trace.residual_frac") metrics
       <= Spans.residual_tolerance
  in
  expect
    (Printf.sprintf "ring engine layers sum within %.0f%% residual"
       (100. *. Spans.residual_tolerance))
    (residual_ok (Ring.trace ~seed ~seconds:1.) "");
  expect
    (Printf.sprintf "graph engine layers sum within %.0f%% residual"
       (100. *. Spans.residual_tolerance))
    (residual_ok (Graph.trace ~seed ~seconds:1.) "gnetwork.");
  expect "check-algo3-n5 verifies 581288 states"
    (clean (Check.run ~seconds:0. ~max_ops:1 ()));
  expect "check-algo3-n5 fails a wrong pinned state count"
    ((Check.run ~pinned:(Check.pinned_states - 1) ~seconds:0. ~max_ops:1 ())
       .failed = 1);
  (* The checks above spawned domains here, so the socket backend can
     no longer fork: the election must count as failed, not vanish. *)
  let _, ok =
    Live.elect
      (Colring_transport.Backend.Socket { tcp = false })
      (Live.inputs ~seed).(0)
  in
  expect "a socket election after a domain spawn counts as failed" (not ok);
  !all_ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and colring = ref "_build/default/bin/colring.exe" in
  let rev = ref "unknown" and self = ref false and child = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--colring", Arg.Set_string colring, "PATH the colring binary");
      ("--rev", Arg.Set_string rev, "REV source revision to record");
      ("--self-test", Arg.Set self, " run the benchmark's own checks");
      ("--domains-child", Arg.Set child, " (internal) backend-live child");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !child then Live.child_main ()
  else if !self then exit (if self_test ~colring:!colring ~seed:!seed then 0 else 1)
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline
        ("bench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    say "workload %s seed %d seconds %g trace %d" !workload !seed !seconds
      !trace;
    say "machine nproc=%d ocaml=%s rev=%s" (Domain.recommended_domain_count ())
      Sys.ocaml_version !rev;
    let r =
      if !trace = 1 then run_trace ~colring:!colring ~seed:!seed ~seconds:!seconds
      else run_workload ~colring:!colring ~seed:!seed ~seconds:!seconds !workload
    in
    print_metrics r.metrics;
    say "attempted %d failed %d failed_frac %g" r.attempted r.failed
      (float_of_int r.failed /. float_of_int (max 1 r.attempted));
    print_endline (json_line ~correct:true r)
  end
