(* Adversarial multicore stress: the dynamic cross-check behind the
   domain-safety static rules (DESIGN.md §7).  CI runs this suite on
   a ThreadSanitizer compiler switch (ocaml-option-tsan), where any
   unsynchronized shared access the lint missed becomes a hard
   failure; locally it doubles as a correctness test.

   The assertions are exactly-once counts and byte-identity — the
   things a data race corrupts first.  Every shared write in this
   file is either an [Atomic], or a disjoint per-index slot published
   by the pool join; racy sharing inside the libraries under test is
   exactly what TSan is here to catch. *)

module Pool = Colring_runtime.Pool
module Batch = Colring_harness.Batch
module Backend = Colring_transport.Backend
module Election = Colring_core.Election
module Ids = Colring_core.Ids
module Topology = Colring_engine.Topology
module Scheduler = Colring_engine.Scheduler
module Rng = Colring_stats.Rng

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let sched seed = Scheduler.random (Rng.create ~seed)
let jobs_list = [ 2; 4; 8 ]

(* Adversarial chunkings: maximal contention (1), ragged tails (3 on
   a prime n), and chunks far larger than the queue (4096). *)
let chunks_list = [ 1; 3; 64; 4096 ]

(* ------------------------------------------------------------------ *)
(* Pool: every index claimed exactly once under every chunking. *)

let test_exactly_once () =
  let n = 1009 in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          let hits = Array.make n 0 in
          let total = Atomic.make 0 in
          Pool.run ~chunk ~jobs n (fun i ->
              hits.(i) <- hits.(i) + 1;
              Atomic.incr total);
          checki
            (Printf.sprintf "-j%d chunk=%d total" jobs chunk)
            n (Atomic.get total);
          Array.iteri
            (fun i h ->
              if h <> 1 then
                Alcotest.failf "-j%d chunk=%d: index %d ran %d times" jobs
                  chunk i h)
            hits)
        chunks_list)
    jobs_list

(* Skewed workloads claimed one index at a time: sparse indices are
   ~1000x the rest, so the other domains keep taking cheap indices off
   the cursor while one is stuck on a slow one. *)
let test_skewed () =
  let n = 257 in
  let sink = Array.make n 0 in
  List.iter
    (fun jobs ->
      Array.fill sink 0 n 0;
      Pool.run ~chunk:1 ~jobs n (fun i ->
          let rounds = if i mod 17 = 0 then 20_000 else 20 in
          let acc = ref 0 in
          for k = 1 to rounds do
            acc := !acc + (k land 7)
          done;
          sink.(i) <- Sys.opaque_identity !acc);
      Array.iteri
        (fun i v ->
          if v = 0 then Alcotest.failf "-j%d: index %d never ran" jobs i)
        sink)
    jobs_list

let test_map_under_contention () =
  List.iter
    (fun jobs ->
      let out = Pool.map ~chunk:3 ~jobs 2048 (fun i -> i * i) in
      Array.iteri
        (fun i v ->
          if v <> i * i then Alcotest.failf "-j%d: slot %d holds %d" jobs i v)
        out)
    jobs_list

(* Exception propagation under contention: a mid-run failure races
   against completing workers on every round, must reach the caller
   without wedging the pool, and the pool must be reusable right
   after. *)
exception Boom

let test_failure_race () =
  for round = 1 to 20 do
    (try
       Pool.run ~chunk:1 ~jobs:4 64 (fun i ->
           if i = 17 then raise Boom);
       Alcotest.fail "exception was swallowed"
     with Boom -> ());
    let ok = Atomic.make 0 in
    Pool.run ~jobs:4 64 (fun _ -> Atomic.incr ok);
    checki (Printf.sprintf "round %d reuse" round) 64 (Atomic.get ok)
  done

(* One long-lived pool serves many consecutive calls, small and large,
   every fifth one raising: each call runs each index at
   most once (exactly once when nothing raised), and no index runs
   while a later call is current — per-call claim state never leaks
   across calls, and a call returns only after its workers left. *)
let test_persistent_calls () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      let current = Atomic.make (-1) in
      let stray = Atomic.make 0 in
      let calls = ref [] in
      for k = 0 to 119 do
        let n = [| 0; 1; 2; 1009 |].(k mod 4) in
        let chunk = [| 1; 3; 64 |].(k mod 3) in
        let raising = k mod 5 = 4 && n > 0 in
        let hits = Array.make n 0 in
        Atomic.set current k;
        (match
           Pool.exec ~chunk pool n (fun i ->
               (* Some slow indices, so a worker still busy after its
                  call returned would finish under the next one. *)
               if i mod 61 = 0 then
                 for _ = 1 to 2000 do
                   Domain.cpu_relax ()
                 done;
               hits.(i) <- hits.(i) + 1;
               if Atomic.get current <> k then Atomic.incr stray;
               if raising && i = n / 2 then raise Boom)
         with
        | () -> if raising then Alcotest.failf "-j%d call %d: swallowed" jobs k
        | exception Boom -> ());
        Array.iteri
          (fun i h ->
            if h > 1 || ((not raising) && h <> 1) then
              Alcotest.failf "-j%d call %d: index %d ran %d times" jobs k i h)
          hits;
        calls := (k, Array.copy hits, hits) :: !calls
      done;
      Atomic.set current (-1);
      Pool.shutdown pool;
      checki (Printf.sprintf "-j%d indices run under a later call" jobs) 0
        (Atomic.get stray);
      List.iter
        (fun (k, seen, hits) ->
          if seen <> hits then
            Alcotest.failf "-j%d call %d: ran again after returning" jobs k)
        !calls)
    jobs_list

(* ------------------------------------------------------------------ *)
(* Batches on warm per-domain cores: many elections per group across
   domains, with per-job journals byte-identical to the sequential run
   for every pool width (the bit-identical-for-every--j contract under
   load). *)

let test_batch_waves () =
  let specs =
    Array.init 24 (fun k ->
        let n = 4 + (k mod 5) in
        { Batch.algorithm = Election.Algo2; n; seed = k + 1; id_max = 2 * n })
  in
  let journals ~jobs =
    let chunks = Array.make (Array.length specs) "" in
    let outcome =
      Batch.run ~jobs
        ~journal:(fun i chunk -> chunks.(i) <- chunk)
        ~sched specs
    in
    Array.iter
      (fun r -> checkb "job elects" true (Election.ok r))
      outcome.Batch.reports;
    chunks
  in
  let expected = journals ~jobs:1 in
  List.iter
    (fun jobs ->
      Array.iteri
        (fun i chunk ->
          checks (Printf.sprintf "-j%d job %d" jobs i) expected.(i) chunk)
        (journals ~jobs))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Domains transport: one OCaml domain per node over atomic pulse
   counters, every live run replay-verified against the simulator. *)

let test_domains_backend () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let topo = Topology.oriented n in
          let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
          let r =
            Backend.elect ~seed Backend.Domains Election.Algo2 ~topo ~ids
          in
          checkb
            (Printf.sprintf "n=%d seed=%d verified" n seed)
            true r.Backend.verified;
          checkb
            (Printf.sprintf "n=%d seed=%d elects" n seed)
            true
            (Election.ok r.Backend.report))
        [ 1; 2; 3 ])
    [ 3; 4; 6 ]

let () =
  Alcotest.run "stress"
    [
      ( "pool",
        [
          Alcotest.test_case "static exactly-once" `Quick test_exactly_once;
          Alcotest.test_case "skewed, chunk 1" `Quick test_skewed;
          Alcotest.test_case "map under contention" `Quick
            test_map_under_contention;
          Alcotest.test_case "failure race" `Quick test_failure_race;
          Alcotest.test_case "persistent pool calls" `Quick
            test_persistent_calls;
        ] );
      ( "batch",
        [ Alcotest.test_case "warm cores byte-identical" `Quick
            test_batch_waves ] );
      ( "transport",
        [ Alcotest.test_case "domains backend verified" `Quick
            test_domains_backend ] );
    ]
