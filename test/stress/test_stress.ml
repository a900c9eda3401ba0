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
(* Pool: every index claimed exactly once under every chunking, both
   modes. *)

let exactly_once mode mode_name () =
  let n = 1009 in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          let hits = Array.make n 0 in
          let total = Atomic.make 0 in
          Pool.run ~mode ~chunk ~jobs n (fun i ->
              hits.(i) <- hits.(i) + 1;
              Atomic.incr total);
          checki
            (Printf.sprintf "%s -j%d chunk=%d total" mode_name jobs chunk)
            n (Atomic.get total);
          Array.iteri
            (fun i h ->
              if h <> 1 then
                Alcotest.failf "%s -j%d chunk=%d: index %d ran %d times"
                  mode_name jobs chunk i h)
            hits)
        chunks_list)
    jobs_list

let test_static_exactly_once = exactly_once Pool.Static "static"
let test_steal_exactly_once = exactly_once Pool.Steal "steal"

(* Skewed workloads force real steals: sparse indices are ~1000x the
   rest, so eager domains drain their own deques and raid the slow
   one's while it is still popping. *)
let test_steal_skewed () =
  let n = 257 in
  let sink = Array.make n 0 in
  List.iter
    (fun jobs ->
      Array.fill sink 0 n 0;
      Pool.run ~mode:Pool.Steal ~chunk:1 ~jobs n (fun i ->
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
    (fun (mode, mode_name) ->
      List.iter
        (fun jobs ->
          let out = Pool.map ~mode ~chunk:3 ~jobs 2048 (fun i -> i * i) in
          Array.iteri
            (fun i v ->
              if v <> i * i then
                Alcotest.failf "%s -j%d: slot %d holds %d" mode_name jobs i v)
            out)
        jobs_list)
    [ (Pool.Static, "static"); (Pool.Steal, "steal") ]

(* Exception propagation under contention: a mid-run failure races
   against completing workers on every round, must reach the caller
   without wedging the pool, and the pool must be reusable right
   after. *)
exception Boom

let test_failure_race () =
  for round = 1 to 20 do
    (try
       Pool.run ~mode:Pool.Steal ~chunk:1 ~jobs:4 64 (fun i ->
           if i = 17 then raise Boom);
       Alcotest.fail "exception was swallowed"
     with Boom -> ());
    let ok = Atomic.make 0 in
    Pool.run ~jobs:4 64 (fun _ -> Atomic.incr ok);
    checki (Printf.sprintf "round %d reuse" round) 64 (Atomic.get ok)
  done

(* ------------------------------------------------------------------ *)
(* Flock batch waves: many elections per wave across domains, with
   per-job journals byte-identical to the sequential run for every
   pool width and both modes (the bit-identical-for-every--j
   contract under load). *)

let test_batch_waves () =
  let specs =
    Array.init 24 (fun k ->
        let n = 4 + (k mod 5) in
        { Batch.algorithm = Election.Algo2; n; seed = k + 1; id_max = 2 * n })
  in
  let journals ~jobs ~mode =
    let chunks = Array.make (Array.length specs) "" in
    let outcome =
      Batch.run ~jobs ~mode
        ~journal:(fun i chunk -> chunks.(i) <- chunk)
        ~sched specs
    in
    Array.iter
      (fun r -> checkb "job elects" true (Election.ok r))
      outcome.Batch.reports;
    chunks
  in
  let expected = journals ~jobs:1 ~mode:Pool.Static in
  List.iter
    (fun (mode, mode_name) ->
      List.iter
        (fun jobs ->
          let got = journals ~jobs ~mode in
          Array.iteri
            (fun i chunk ->
              checks
                (Printf.sprintf "%s -j%d job %d" mode_name jobs i)
                expected.(i) chunk)
            got)
        [ 2; 4 ])
    [ (Pool.Static, "static"); (Pool.Steal, "steal") ]

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
          Alcotest.test_case "static exactly-once" `Quick
            test_static_exactly_once;
          Alcotest.test_case "steal exactly-once" `Quick
            test_steal_exactly_once;
          Alcotest.test_case "steal skewed" `Quick test_steal_skewed;
          Alcotest.test_case "map under contention" `Quick
            test_map_under_contention;
          Alcotest.test_case "failure race" `Quick test_failure_race;
        ] );
      ( "batch",
        [ Alcotest.test_case "flock waves byte-identical" `Quick
            test_batch_waves ] );
      ( "transport",
        [ Alcotest.test_case "domains backend verified" `Quick
            test_domains_backend ] );
    ]
