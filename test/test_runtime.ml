(* Tests for the lib/runtime domain pool: full index coverage under any
   jobs/chunk combination, degenerate grids, exception propagation
   without wedging, COLRING_JOBS parsing, and the Rng.split_at
   properties the parallel sweep's determinism rests on. *)

module Pool = Colring_runtime.Pool
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_map_matches_sequential () =
  let f i = (i * i) - (3 * i) + 7 in
  let expected = Array.init 100 f in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
            expected
            (Pool.map ~chunk ~jobs 100 f))
        [ 1; 3; 7; 128 ])
    [ 1; 2; 4; 9 ]

let test_run_covers_each_index_once () =
  List.iter
    (fun jobs ->
      let n = 257 in
      (* Each index is claimed exactly once, so slot [i] sees one
         write and no cross-domain contention. *)
      let hits = Array.make n 0 in
      Pool.run ~jobs ~chunk:5 n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i h -> checki (Printf.sprintf "index %d" i) 1 h)
        hits)
    [ 1; 2; 4 ]

let test_empty_grid () =
  List.iter
    (fun jobs ->
      Pool.run ~jobs 0 (fun _ -> Alcotest.fail "job ran on empty grid");
      checki "map length" 0 (Array.length (Pool.map ~jobs 0 (fun i -> i))))
    [ 1; 4 ]

let test_more_jobs_than_cells () =
  Alcotest.(check (array int))
    "jobs=16 n=3" [| 0; 10; 20 |]
    (Pool.map ~jobs:16 3 (fun i -> 10 * i))

let test_invalid_args () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "jobs=0" true (raises (fun () -> Pool.run ~jobs:0 1 ignore));
  checkb "chunk=0" true (raises (fun () -> Pool.run ~chunk:0 ~jobs:1 1 ignore));
  checkb "n<0" true (raises (fun () -> Pool.map ~jobs:1 (-1) (fun i -> i)))

let test_exception_propagates_and_pool_survives () =
  List.iter
    (fun jobs ->
      (match Pool.run ~jobs 64 (fun i -> if i = 37 then failwith "boom") with
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "message at jobs=%d" jobs)
            "boom" msg
      | () -> Alcotest.fail "exception was swallowed");
      (* The pool has no persistent state, so the next call must work. *)
      Alcotest.(check (array int))
        (Printf.sprintf "reusable at jobs=%d" jobs)
        [| 0; 1; 2; 3 |]
        (Pool.map ~jobs 4 (fun i -> i)))
    [ 1; 4 ]

(* The domains transport backend hands the pool jobs that block on
   shared state until every peer has progressed; if one peer raises,
   the others would spin forever unless [on_failure] runs before the
   failing domain stops processing.  This is that contract: the
   blocked jobs exit as soon as the hook fires, the exception still
   propagates, the hook ran exactly once, and the pool stays
   reusable. *)
let test_on_failure_unblocks_blocked_jobs () =
  let abort = Atomic.make false in
  let calls = Atomic.make 0 in
  (match
     Pool.run ~jobs:4
       ~on_failure:(fun () ->
         Atomic.incr calls;
         Atomic.set abort true)
       4
       (fun i ->
         if i = 0 then failwith "boom"
         else
           while not (Atomic.get abort) do
             Domain.cpu_relax ()
           done)
   with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | () -> Alcotest.fail "exception was swallowed");
  checki "on_failure ran exactly once" 1 (Atomic.get calls);
  Alcotest.(check (array int))
    "pool reusable after abort" [| 0; 1; 2; 3 |]
    (Pool.map ~jobs:4 4 (fun i -> i))

let test_on_failure_sequential_path () =
  (* jobs = 1 never spawns a domain but honours the same hook. *)
  let calls = ref 0 in
  (match
     Pool.run ~jobs:1
       ~on_failure:(fun () -> incr calls)
       3
       (fun i -> if i = 1 then failwith "seq")
   with
  | exception Failure msg -> Alcotest.(check string) "message" "seq" msg
  | () -> Alcotest.fail "exception was swallowed");
  checki "on_failure ran exactly once" 1 !calls

let test_auto_chunk_covers () =
  (* No explicit chunk: the auto-tuned size must still cover every
     index exactly once, including when it rounds to 0-remainder
     boundaries. *)
  List.iter
    (fun (jobs, n) ->
      let hits = Array.make (max n 1) 0 in
      Pool.run ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
      for i = 0 to n - 1 do
        checki (Printf.sprintf "jobs=%d n=%d i=%d" jobs n i) 1 hits.(i)
      done)
    [ (1, 10_000); (4, 10_000); (4, 7); (3, 1); (4, 0) ]

let test_map_first_slot_failure () =
  (* Slot 0 runs on the pool like every other index; its failure must
     fire [on_failure] exactly once and propagate. *)
  let calls = ref 0 in
  (match
     Pool.map ~jobs:4
       ~on_failure:(fun () -> incr calls)
       4
       (fun i -> if i = 0 then failwith "slot0" else i)
   with
  | exception Failure msg -> Alcotest.(check string) "message" "slot0" msg
  | _ -> Alcotest.fail "exception was swallowed");
  checki "on_failure ran exactly once" 1 !calls

(* The long-lived pool: a failed call leaves it serving, small calls
   stay in the caller, misuse is refused, and shutdown is idempotent. *)
let test_persistent_pool () =
  let pool = Pool.create ~jobs:4 in
  let raises_invalid f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  for round = 1 to 3 do
    (match Pool.exec pool 64 (fun i -> if i = 37 then failwith "boom") with
    | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
    | () -> Alcotest.fail "exception was swallowed");
    let hits = Array.make 100 0 in
    Pool.exec pool 100 (fun i -> hits.(i) <- hits.(i) + 1);
    Array.iteri
      (fun i h -> checki (Printf.sprintf "round %d index %d" round i) 1 h)
      hits
  done;
  let me = Domain.self () in
  Pool.exec pool 1 (fun _ ->
      checkb "n = 1 runs in the caller" true (Domain.self () = me));
  checkb "nested call refused" true
    (raises_invalid (fun () ->
         Pool.exec ~chunk:1 pool 2 (fun _ -> Pool.exec pool 2 ignore)));
  Pool.exec pool 8 ignore;
  Pool.shutdown pool;
  Pool.shutdown pool;
  checkb "call after shutdown" true
    (raises_invalid (fun () -> Pool.exec pool 8 ignore));
  checkb "small call after shutdown" true
    (raises_invalid (fun () -> Pool.exec pool 0 ignore));
  checkb "jobs = 0" true (raises_invalid (fun () -> Pool.create ~jobs:0))

let test_default_jobs_env () =
  Unix.putenv "COLRING_JOBS" "3";
  checki "COLRING_JOBS=3" 3 (Pool.default_jobs ());
  Unix.putenv "COLRING_JOBS" "";
  checkb "empty falls back" true (Pool.default_jobs () >= 1);
  Unix.putenv "COLRING_JOBS" "zero";
  checkb "garbage rejected" true
    (match Pool.default_jobs () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Unix.putenv "COLRING_JOBS" "0";
  checkb "non-positive rejected" true
    (match Pool.default_jobs () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Unix.putenv "COLRING_JOBS" ""

(* The parallel sweep hands cell [i] the child stream [split_at rng i];
   determinism and decorrelation need: children don't advance the
   parent, equal indices give equal streams, distinct indices give
   streams that disagree quickly. *)
let test_split_at_does_not_advance_parent () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  ignore (Rng.split_at a 5);
  ignore (Rng.split_at a 6);
  let xs = List.init 8 (fun _ -> Rng.bits a 62) in
  let ys = List.init 8 (fun _ -> Rng.bits b 62) in
  checkb "parent unchanged" true (xs = ys)

let test_split_at_reproducible () =
  let mk () = Rng.split_at (Rng.create ~seed:7) 3 in
  let xs = let t = mk () in List.init 8 (fun _ -> Rng.bits t 62) in
  let ys = let t = mk () in List.init 8 (fun _ -> Rng.bits t 62) in
  checkb "same child" true (xs = ys)

let test_split_at_children_distinct () =
  let parent = Rng.create ~seed:11 in
  let draws i =
    let t = Rng.split_at parent i in
    List.init 4 (fun _ -> Rng.bits t 62)
  in
  let streams = List.init 32 draws in
  let distinct = List.sort_uniq compare streams in
  checki "32 distinct children" 32 (List.length distinct)

let () =
  Alcotest.run "colring-runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "covers each index once" `Quick
            test_run_covers_each_index_once;
          Alcotest.test_case "empty grid" `Quick test_empty_grid;
          Alcotest.test_case "more jobs than cells" `Quick
            test_more_jobs_than_cells;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "on_failure unblocks blocked jobs" `Quick
            test_on_failure_unblocks_blocked_jobs;
          Alcotest.test_case "on_failure on the sequential path" `Quick
            test_on_failure_sequential_path;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "auto chunk covers" `Quick test_auto_chunk_covers;
          Alcotest.test_case "map first-slot failure" `Quick
            test_map_first_slot_failure;
          Alcotest.test_case "COLRING_JOBS" `Quick test_default_jobs_env;
          Alcotest.test_case "persistent pool reuse and shutdown" `Quick
            test_persistent_pool;
        ] );
      ( "split_at",
        [
          Alcotest.test_case "parent not advanced" `Quick
            test_split_at_does_not_advance_parent;
          Alcotest.test_case "reproducible" `Quick test_split_at_reproducible;
          Alcotest.test_case "children distinct" `Quick
            test_split_at_children_distinct;
        ] );
    ]
