(* Tests for the sweep harness: workload generators produce valid
   instances, the grid covers what it should, CSV round-trips shape,
   and summaries aggregate correctly. *)

open Colring_engine
open Colring_core
open Colring_harness
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cli: the one set of flag-validation rules both entry points use. *)

let contains_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let is_error ~flag = function
  (* The message must name the offending flag, so the user sees which
     of several numeric options was bad. *)
  | Error msg -> contains_sub msg flag
  | Ok _ -> false

let colring_exe () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/colring.exe"; "_build/default/bin/colring.exe" ]
  with
  | Some exe -> exe
  | None -> Alcotest.fail "colring.exe not built"

let test_cli_validators () =
  checkb "positive accepts 1" true (Cli.positive ~flag:"-j" 1 = Ok 1);
  checkb "positive rejects 0" true (is_error ~flag:"-j" (Cli.positive ~flag:"-j" 0));
  checkb "positive rejects negative" true
    (is_error ~flag:"--max-deliveries"
       (Cli.positive ~flag:"--max-deliveries" (-5)));
  checkb "non_negative accepts 0" true
    (Cli.non_negative ~flag:"--jitter" 0 = Ok 0);
  checkb "non_negative rejects -1" true
    (is_error ~flag:"--jitter" (Cli.non_negative ~flag:"--jitter" (-1)));
  checkb "ring_size accepts 2" true (Cli.ring_size ~flag:"-n" 2 = Ok 2);
  checkb "ring_size rejects 1" true
    (is_error ~flag:"-n" (Cli.ring_size ~flag:"-n" 1));
  checkb "ring_size rejects negative" true
    (is_error ~flag:"-n" (Cli.ring_size ~flag:"-n" (-3)))

let test_cli_jobs_default () =
  checkb "Some 3 passes through" true (Cli.jobs ~flag:"-j" (Some 3) = Ok 3);
  checkb "Some 0 rejected" true (is_error ~flag:"-j" (Cli.jobs ~flag:"-j" (Some 0)));
  checkb "None resolves to default_jobs" true
    (Cli.jobs ~flag:"-j" None = Ok (Colring_runtime.Pool.default_jobs ()))

(* --scheduler: every listed name builds a scheduler; an unknown name
   is refused with the flag and the valid names, not a Failure from
   deep inside the subcommand. *)
let test_cli_scheduler () =
  List.iter
    (fun (name, _) ->
      match Cli.scheduler ~flag:"--scheduler" name with
      | Ok make -> ignore (make 1)
      | Error msg -> Alcotest.failf "%s refused: %s" name msg)
    Cli.schedulers;
  checkb "seven names" true (List.length Cli.schedulers = 7);
  match Cli.scheduler ~flag:"--scheduler" "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      checkb "names the flag and value" true
        (contains_sub msg "--scheduler bogus");
      List.iter
        (fun (name, _) ->
          checkb ("lists " ^ name) true (contains_sub msg name))
        Cli.schedulers

(* --journal / --journal-dir: a path that cannot be opened is refused
   with the flag named, before any job runs. *)
let test_cli_output_paths () =
  checkb "unopenable journal file" true
    (is_error ~flag:"--journal /nonexistent/dir/x.jsonl"
       (Cli.output_file ~flag:"--journal" "/nonexistent/dir/x.jsonl"));
  checkb "uncreatable journal dir" true
    (is_error ~flag:"--journal-dir /nonexistent/d"
       (Cli.output_dir ~flag:"--journal-dir" "/nonexistent/d"));
  let file = Filename.temp_file "colring" ".jsonl" in
  checkb "a file is not a journal dir" true
    (is_error ~flag:"--journal-dir"
       (Cli.output_dir ~flag:"--journal-dir" file));
  (match Cli.output_file ~flag:"--journal" file with
  | Ok oc -> close_out oc
  | Error msg -> Alcotest.failf "writable file refused: %s" msg);
  Sys.remove file;
  let dir = Filename.temp_file "colring" ".d" in
  Sys.remove dir;
  checkb "missing dir is created" true
    (Cli.output_dir ~flag:"--journal-dir" dir = Ok dir && Sys.is_directory dir);
  checkb "existing dir accepted" true
    (Cli.output_dir ~flag:"--journal-dir" dir = Ok dir);
  Sys.rmdir dir;
  (* End to end: every subcommand that takes --journal refuses an
     unopenable path with exit 2 and the flag's name, before it runs
     anything (not exit 125 from an uncaught Sys_error). *)
  let exe = colring_exe () in
  let out = Filename.temp_file "colring" ".out" in
  List.iter
    (fun args ->
      let args = args @ [ "--journal"; "/nonexistent/dir/x.jsonl" ] in
      let code =
        Sys.command
          (Filename.quote_command exe args ~stdin:"/dev/null" ~stdout:out
             ~stderr:out)
      in
      let text = In_channel.with_open_bin out In_channel.input_all in
      let what = String.concat " " args in
      checki (what ^ " exits 2") 2 code;
      (* One line of output, the refusal: nothing ran before it. *)
      checkb (what ^ " prints only the named error") true
        (String.starts_with
           ~prefix:"colring: --journal /nonexistent/dir/x.jsonl" text
        && List.length (String.split_on_char '\n' (String.trim text)) = 1))
    [
      [ "elect"; "-n"; "4" ];
      [ "elect"; "--topology"; "k4" ];
      [ "baseline"; "-n"; "4" ];
      [ "check"; "-n"; "3" ];
      [ "sweep" ];
      [ "serve" ];
    ];
  Sys.remove out

(* colring batch takes ring sizes from its spec lines, so
   [--topology ring:N] is refused by name (exit 2) instead of silently
   running the spec's sizes; [ring] itself stays accepted. *)
let test_batch_refuses_sized_ring () =
  let exe = colring_exe () in
  let spec = Filename.temp_file "colring" ".spec" in
  Out_channel.with_open_bin spec (fun oc -> output_string oc "algo2 8 1\n");
  let out = Filename.temp_file "colring" ".out" in
  let run topo =
    let code =
      Sys.command
        (Filename.quote_command exe
           [ "batch"; spec; "--topology"; topo ]
           ~stdout:out ~stderr:out)
    in
    (code, In_channel.with_open_bin out In_channel.input_all)
  in
  let code, text = run "ring:6" in
  checki "ring:6 exits 2" 2 code;
  checkb "the refusal names --topology" true
    (String.starts_with ~prefix:"colring: --topology ring:6: " text);
  let code, text = run "ring" in
  checki "ring runs" 0 code;
  checkb "and runs the spec's ring" true
    (contains_sub text "ok                  1");
  Sys.remove spec;
  Sys.remove out

(* A non-ring --topology runs the walk election, and a graph check
   target its fixed instance: an explicitly given --target/--algo (or,
   for a graph target, --topology) that the other flag would silently
   override is refused with exit 2 and one line naming both flags,
   before anything runs.  Either flag alone keeps working. *)
let test_cli_topology_overrides () =
  let exe = colring_exe () in
  let out = Filename.temp_file "colring" ".out" in
  let run args =
    let code =
      Sys.command
        (Filename.quote_command exe args ~stdin:"/dev/null" ~stdout:out
           ~stderr:out)
    in
    (code, In_channel.with_open_bin out In_channel.input_all)
  in
  List.iter
    (fun (args, flags) ->
      let what = String.concat " " args in
      let code, text = run args in
      checki (what ^ " exits 2") 2 code;
      checkb (what ^ " prints one line") true
        (List.length (String.split_on_char '\n' (String.trim text)) = 1);
      List.iter
        (fun flag -> checkb (what ^ " names " ^ flag) true (contains_sub text flag))
        flags)
    [
      ( [ "check"; "--target"; "ablation:no-lag"; "--topology"; "bowtie" ],
        [ "--target ablation:no-lag"; "--topology bowtie" ] );
      ( [ "check"; "--target"; "walk:theta3"; "--topology"; "ring:4" ],
        [ "--target walk:theta3"; "--topology ring:4" ] );
      ( [ "elect"; "--algo"; "algo1"; "--topology"; "k4" ],
        [ "--algo algo1"; "--topology k4" ] );
      ( [ "sweep"; "--algo"; "algo1"; "--topology"; "k4" ],
        [ "--algo algo1"; "--topology k4" ] );
    ];
  List.iter
    (fun args ->
      let code, _ = run args in
      checki (String.concat " " args ^ " runs") 0 code)
    [
      [ "check"; "--topology"; "k4"; "-j"; "1" ];
      [ "check"; "--target"; "walk:k4"; "-j"; "1" ];
      [ "check"; "--target"; "algo1"; "--topology"; "ring:3"; "-j"; "1" ];
      [ "elect"; "--topology"; "k4" ];
    ];
  Sys.remove out

(* --id-max below the node count, or so large that a pulse total
   overflows, is refused once n is known (from -n or --topology) by
   every subcommand that takes it: exit 2, one line naming the flag,
   nothing run before it; so are solitude and adversary ids past the
   extraction budget.  Bad -c, --id and --upto values and unknown
   check targets are cmdliner usage errors (124), and so is the
   removed [batch --pool]; a
   -c so large that every sampled ID is past anonymous's limit is a
   refused run (1).  None is an uncaught exception (125). *)
let test_cli_value_refusals () =
  let exe = colring_exe () in
  let out = Filename.temp_file "colring" ".out" in
  let run args =
    let code =
      Sys.command
        (Filename.quote_command exe args ~stdin:"/dev/null" ~stdout:out
           ~stderr:out)
    in
    (code, In_channel.with_open_bin out In_channel.input_all)
  in
  List.iter
    (fun (args, k) ->
      let code, text = run args in
      let what = String.concat " " args in
      checki (what ^ " exits 2") 2 code;
      checkb (what ^ " prints only the named error") true
        (String.starts_with
           ~prefix:(Printf.sprintf "colring: --id-max %d: " k)
           text
        && List.length (String.split_on_char '\n' (String.trim text)) = 1))
    [
      ([ "elect"; "-n"; "4"; "--id-max"; "2" ], 2);
      ([ "elect"; "--topology"; "k4"; "--id-max"; "3" ], 3);
      ([ "compose"; "-n"; "6"; "--id-max"; "3" ], 3);
      ([ "check"; "-n"; "4"; "--id-max"; "2" ], 2);
      ([ "check"; "--topology"; "theta:6"; "--id-max"; "5" ], 5);
      ([ "fast"; "--id-max"; "0" ], 0);
      (* n(4*ID_max-1), the largest pulse total, overflows an int. *)
      ([ "check"; "-n"; "3"; "--id-max"; "4000000000000000000" ],
        4000000000000000000);
      ([ "fast"; "-n"; "4"; "--id-max"; "4000000000000000000" ],
        4000000000000000000);
    ];
  List.iter
    (fun (args, want, prefix) ->
      let code, text = run args in
      let what = String.concat " " args in
      checki (what ^ " exit code") want code;
      checkb (what ^ " names the flag") true (contains_sub text prefix))
    [
      ([ "anonymous"; "-c"; "0" ], 124, "-c 0: ");
      ([ "anonymous"; "-c"; "nan" ], 124, "-c nan: ");
      ([ "anonymous"; "-c"; "1e300" ], 1, "past this command's limit");
      ([ "solitude"; "--id"; "0" ], 124, "--id 0: ");
      ([ "solitude"; "--upto=-3" ], 124, "--upto -3: ");
      ([ "solitude"; "--upto=0" ], 124, "--upto 0: ");
      ( [ "check"; "--target"; "nope" ],
        124,
        "option '--target': invalid value 'nope'" );
      ([ "compose"; "--app"; "foo" ], 124, "option '--app': invalid value 'foo'");
      ( [ "baseline"; "--algo"; "foo" ],
        124,
        "option '--algo': invalid value 'foo'" );
      ([ "elect"; "--algo"; "foo" ], 124, "option '--algo': invalid value 'foo'");
      (* The pool has one claim strategy; the flag that picked one is
         gone. *)
      ([ "batch"; "--pool"; "steal" ], 124, "unknown option '--pool'");
    ];
  (* An id whose Algorithm 2 solitude run (2*id+1 deliveries) exceeds
     the extraction budget is refused before anything runs: exit 2,
     one line naming the flag.  The largest id that fits still runs. *)
  List.iter
    (fun (args, prefix) ->
      let code, text = run args in
      let what = String.concat " " args in
      checki (what ^ " exits 2") 2 code;
      checkb (what ^ " prints only the named error") true
        (String.starts_with ~prefix text
        && List.length (String.split_on_char '\n' (String.trim text)) = 1))
    [
      ([ "solitude"; "--id"; "500000" ], "colring solitude: --id 500000: ");
      ([ "solitude"; "--upto"; "500000" ], "colring solitude: --upto 500000: ");
      ([ "adversary"; "-k"; "500000" ], "colring adversary: -k 500000: ");
    ];
  let code, text = run [ "solitude"; "--id"; "499999" ] in
  checki "solitude --id 499999 runs" 0 code;
  checkb "solitude --id 499999 prints its pattern" true
    (contains_sub text "id 499999 (999999 pulses)");
  (* A name flag lists every name it accepts. *)
  List.iter
    (fun (args, names) ->
      let _, text = run args in
      List.iter
        (fun name ->
          checkb
            (String.concat " " args ^ " lists " ^ name)
            true
            (contains_sub text ("'" ^ name ^ "'")))
        names)
    [
      ( [ "compose"; "--app"; "foo" ],
        [ "discovery"; "gather"; "sum"; "chang-roberts"; "broadcast" ] );
      ( [ "baseline"; "--algo"; "foo" ],
        [
          "chang-roberts";
          "lelann";
          "hirschberg-sinclair";
          "peterson";
          "franklin";
          "itai-rodeh";
        ] );
      ( [ "elect"; "--algo"; "foo" ],
        [ "algo1"; "algo2"; "algo3-doubled"; "algo3-improved"; "resample" ] );
      ([ "check"; "--target"; "nope" ], Colring_mc.Spec.targets);
    ];
  Sys.remove out

(* Each command's --help states the --id-max default it applies. *)
let test_cli_id_max_help () =
  let exe = colring_exe () in
  let out = Filename.temp_file "colring" ".out" in
  let help cmd =
    let code =
      Sys.command
        (Filename.quote_command exe [ cmd; "--help=plain" ] ~stdout:out)
    in
    checki (cmd ^ " --help exits 0") 0 code;
    (* Undo the help renderer's line wrapping. *)
    String.concat " "
      (List.filter (( <> ) "")
         (String.split_on_char ' '
            (String.map
               (fun c -> if c = '\n' then ' ' else c)
               (In_channel.with_open_bin out In_channel.input_all))))
  in
  List.iter
    (fun (cmd, default) ->
      checkb
        (cmd ^ " --id-max default")
        true
        (contains_sub (help cmd)
           ("Largest assignable ID (default: " ^ default ^ ").")))
    [
      ("elect", "2n");
      ("compose", "2n");
      ( "check",
        "n, or the graph's node count with --topology; a graph target checks \
         its fixed ids" );
      ("fast", "1,000,000·n");
    ];
  Sys.remove out

(* colring check on a graph target journals the n and id_max of the
   fixed instance it checks, whatever -n and --id-max say. *)
let test_check_fixed_instance_journal () =
  let exe = colring_exe () in
  let journal = Filename.temp_file "colring" ".jsonl" in
  let out = Filename.temp_file "colring" ".out" in
  List.iter
    (fun target ->
      match Colring_mc.Spec.fixed_ids target with
      | None -> ()
      | Some ids ->
          let code =
            Sys.command
              (Filename.quote_command exe
                 [
                   "check"; "--target"; target; "-n"; "8"; "--id-max"; "1";
                   "--journal"; journal;
                 ]
                 ~stdout:out)
          in
          checki (target ^ " exits 0") 0 code;
          let row = In_channel.with_open_bin journal In_channel.input_all in
          checkb
            (target ^ " journals its instance")
            true
            (contains_sub row
               (Printf.sprintf "\"n\":%d,\"id_max\":%d,"
                  (Array.length ids) (Ids.id_max ids))))
    Colring_mc.Spec.targets;
  Sys.remove journal;
  Sys.remove out

(* colring adversary -n N -k K: the ID space must cover the ring. *)
let test_cli_adversary_id_space () =
  checkb "k = n accepted" true (Cli.id_space ~flag:"-k" ~n:5 5 = Ok 5);
  checkb "k > n accepted" true (Cli.id_space ~flag:"-k" ~n:5 256 = Ok 256);
  checkb "k < n names -k" true
    (is_error ~flag:"-k 3" (Cli.id_space ~flag:"-k" ~n:5 3));
  (* The largest k whose n(4k-1) stays below max_int, and one more. *)
  let k = (((max_int - 1) / 4) + 1) / 4 in
  checkb "largest k accepted at n = 4" true
    (Cli.id_space ~flag:"-k" ~n:4 k = Ok k);
  checkb "k + 1 refused at n = 4" true
    (is_error
       ~flag:(Printf.sprintf "-k %d" (k + 1))
       (Cli.id_space ~flag:"-k" ~n:4 (k + 1)));
  (* Every id up to k runs a solitude extraction of 2*id+1 deliveries
     within its 1_000_000 budget. *)
  checkb "largest solitude id accepted" true
    (Cli.solitude_id ~flag:"-k" 499_999 = Ok 499_999);
  checkb "one more refused" true
    (is_error ~flag:"-k 500000" (Cli.solitude_id ~flag:"-k" 500_000))

(* colring check: a topology past the model checker's link limit is
   refused by the flag that sized it, not by an exception from
   Mc.check.  Link counts come from each topology's [num_links]. *)
let test_cli_check_link_budget () =
  let budget ~flag ~value links =
    Cli.link_budget ~flag ~value ~max:Colring_mc.Mc.max_links links
  in
  let ring n = Topology.num_links (Topology.oriented n) in
  checkb "ring n = 30 fits" true
    (budget ~flag:"-n" ~value:"30" (ring 30) = Ok 60);
  let r = budget ~flag:"-n" ~value:"31" (ring 31) in
  checkb "ring n = 31 refused by -n" true (is_error ~flag:"-n 31" r);
  checkb "message gives the count and the limit" true
    (is_error ~flag:"62 directed links" r && is_error ~flag:"at most 60" r);
  let theta =
    Colring_graph.Gtopology.num_links
      (Topo.materialize ~default_n:8 (Topo.Theta 40))
  in
  checkb "theta:40 refused by --topology" true
    (is_error ~flag:"--topology theta:40"
       (budget ~flag:"--topology" ~value:"theta:40" theta))

(* A live backend past its node cap is refused before anything starts:
   exit 2 and one line naming the flag that sized the ring and
   --backend, with no "ids:" line (nothing ran).  Only refusals run
   here; no live backend is started. *)
let test_cli_live_cap () =
  checki "the cap" 128 Cli.max_live_nodes;
  let exe = colring_exe () in
  let out = Filename.temp_file "colring" ".out" in
  List.iter
    (fun (args, named) ->
      let code =
        Sys.command
          (Filename.quote_command exe ("elect" :: args) ~stdin:"/dev/null"
             ~stdout:out ~stderr:out)
      in
      let text = In_channel.with_open_bin out In_channel.input_all in
      let what = String.concat " " args in
      checki (what ^ " exits 2") 2 code;
      checkb (what ^ " prints one line") true
        (List.length (String.split_on_char '\n' (String.trim text)) = 1);
      List.iter
        (fun s -> checkb (what ^ " names " ^ s) true (contains_sub text s))
        named)
    [
      ( [ "--backend"; "domains"; "-n"; "129" ],
        [ "-n 129: "; "--backend domains " ] );
      ( [ "--backend"; "socket"; "-n"; "129" ],
        [ "-n 129: "; "--backend socket " ] );
      ( [ "--backend"; "socket-tcp"; "--topology"; "ring:129" ],
        [ "--topology ring:129: "; "--backend socket-tcp " ] );
    ];
  Sys.remove out

let test_workload_shapes () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun n ->
          let ids, topo = w.generate (Rng.create ~seed:n) ~n in
          checki (w.name ^ " n") n (Array.length ids);
          Topology.check topo;
          Array.iter
            (fun id -> checkb (w.name ^ " positive") true (id >= 1))
            ids;
          if w.oriented then
            checkb (w.name ^ " oriented") true (Topology.is_oriented topo))
        [ 1; 2; 5; 16 ])
    (Workload.all_for_election
    @ [
        Workload.dense_scrambled;
        Workload.sparse_scrambled ~factor:4;
        Workload.duplicated_max ~copies:3;
        Workload.anonymous ~c:1.0;
      ])

let test_workload_determinism () =
  let w = Workload.sparse ~factor:8 in
  let a, _ = w.generate (Rng.create ~seed:3) ~n:10 in
  let b, _ = w.generate (Rng.create ~seed:3) ~n:10 in
  checkb "same" true (a = b)

let test_decreasing_is_cr_worst () =
  let ids, _ = Workload.decreasing.generate (Rng.create ~seed:1) ~n:5 in
  Alcotest.(check (array int)) "ids" [| 5; 4; 3; 2; 1 |] ids

let test_duplicated_max_has_copies () =
  let w = Workload.duplicated_max ~copies:3 in
  let ids, _ = w.generate (Rng.create ~seed:2) ~n:8 in
  let id_max = Ids.id_max ids in
  checki "copies" 3
    (Array.fold_left (fun acc x -> if x = id_max then acc + 1 else acc) 0 ids)

let small_grid () =
  Sweep.election
    ~algorithms:[ Election.Algo2; Election.Algo3 Algo3.Improved ]
    ~workloads:[ Workload.dense; Workload.dense_scrambled ]
    ~ns:[ 2; 5 ] ~seeds:[ 1; 2 ]
    ~schedulers:[ (fun s -> Scheduler.random (Rng.create ~seed:s)) ]
    ()

let test_sweep_grid_coverage () =
  let ms = small_grid () in
  (* algo2 runs only on the oriented workload (1), algo3 on both (2):
     3 combos x 2 ns x 2 seeds x 1 scheduler = 12. *)
  checki "cells" 12 (List.length ms);
  checkb "all ok" true (List.for_all (fun m -> m.Sweep.ok) ms);
  checkb "exact counts" true
    (List.for_all (fun m -> m.Sweep.sends = m.Sweep.expected) ms)

let test_sweep_skips_incompatible () =
  let ms =
    Sweep.election ~algorithms:[ Election.Algo1 ]
      ~workloads:[ Workload.dense_scrambled ]
      ~ns:[ 4 ] ~seeds:[ 1 ]
      ~schedulers:[ (fun _ -> Scheduler.fifo) ]
      ()
  in
  checki "skipped" 0 (List.length ms)

(* The sweep runs an instance with ID_max = 100_000 and skips one
   with ID_max = 100_001. *)
let test_sweep_id_cap () =
  let top id_max : Workload.t =
    {
      name = Printf.sprintf "top-%d" id_max;
      oriented = true;
      generate =
        (fun _ ~n -> (Array.init n (fun v -> id_max - v), Topology.oriented n));
    }
  in
  let ms =
    Sweep.election
      ~algorithms:[ Election.Algo2 ]
      ~workloads:[ top 100_000; top 100_001 ]
      ~ns:[ 2 ] ~seeds:[ 1 ]
      ~schedulers:[ (fun _ -> Scheduler.fifo) ]
      ()
  in
  Alcotest.(check (list string))
    "only the instance at the cap runs" [ "top-100000" ]
    (List.map (fun m -> m.Sweep.workload) ms)

let test_csv_shape () =
  let ms = small_grid () in
  let csv = Sweep.to_csv ms in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  checki "lines" (1 + List.length ms) (List.length lines);
  checkb "header" true
    (List.hd lines
    = "algorithm,workload,n,id_max,seed,scheduler,sends,expected,deliveries,ok");
  List.iter
    (fun line ->
      checki "fields" 10 (List.length (String.split_on_char ',' line)))
    lines

let par_grid ~jobs () =
  Sweep.election ~jobs
    ~algorithms:[ Election.Algo2; Election.Algo3 Algo3.Improved ]
    ~workloads:[ Workload.dense; Workload.sparse_scrambled ~factor:4 ]
    ~ns:[ 2; 5; 9 ] ~seeds:[ 1; 2; 3 ]
    ~schedulers:
      [
        (fun s -> Scheduler.random (Rng.create ~seed:s));
        (fun _ -> Scheduler.lifo);
      ]
    ()

let test_sweep_parallel_determinism () =
  let reference = par_grid ~jobs:1 () in
  checkb "non-trivial grid" true (List.length reference > 20);
  List.iter
    (fun jobs ->
      let ms = par_grid ~jobs () in
      checkb
        (Printf.sprintf "measurements identical at jobs=%d" jobs)
        true
        (ms = reference);
      Alcotest.(check string)
        (Printf.sprintf "csv bytes identical at jobs=%d" jobs)
        (Sweep.to_csv reference) (Sweep.to_csv ms))
    [ 2; 4 ]

(* The scheduler constructor receives a per-cell seed derived from the
   cell's own stream, so a random adversary is decorrelated across
   cells. *)
let test_sweep_scheduler_seeds () =
  let seen = ref [] in
  let record s =
    seen := s :: !seen;
    Scheduler.fifo
  in
  ignore
    (Sweep.election
       ~algorithms:[ Election.Algo2 ]
       ~workloads:[ Workload.dense ]
       ~ns:[ 2; 4; 8 ] ~seeds:[ 5; 6 ]
       ~schedulers:[ record ]
       ());
  checki "one seed per cell" 6 (List.length !seen);
  checki "seeds distinct across cells" 6
    (List.length (List.sort_uniq compare !seen));
  checkb "seeds are not the trial seeds" true
    (List.for_all (fun s -> s <> 5 && s <> 6) !seen)

let test_summary_groups () =
  let ms = small_grid () in
  let rows = Sweep.summarize ms in
  (* 3 combos x 2 ns = 6 groups. *)
  checki "groups" 6 (List.length rows);
  List.iter
    (fun (r : Sweep.summary_row) ->
      checki (r.group ^ " runs") 2 r.runs;
      checki (r.group ^ " all ok") 2 r.ok_runs;
      checkb (r.group ^ " exact") true (r.max_rel_err_vs_expected < 1e-9))
    rows

(* ------------------------------------------------------------------ *)
(* Topo: the shared --topology grammar and its materializer *)

let test_topo_parse_round_trip () =
  List.iter
    (fun s ->
      match Topo.parse s with
      | Ok t -> Alcotest.(check string) (s ^ " round-trips") s (Topo.to_string t)
      | Error msg -> Alcotest.failf "%s rejected: %s" s msg)
    [ "ring"; "ring:6"; "theta:8"; "k4"; "bowtie"; "random2ec:12:5" ];
  checkb "two-ear is bowtie" true (Topo.parse "two-ear" = Ok Topo.Bowtie);
  List.iter
    (fun s ->
      checkb (s ^ " rejected, naming the flag") true
        (match Topo.parse s with
        | Error msg -> contains_sub msg "--topology"
        | Ok _ -> false))
    [ "ring:1"; "theta:3"; "theta"; "random2ec:12"; "random2ec:3:5"; "k5"; "" ]

(* Node counts are capped at the batch spec line's cap: past it a
   topology would take minutes to build and could never finish its
   election within the default budget. *)
let test_topo_size_cap () =
  let cap = Batch.max_n in
  List.iter
    (fun (s, field) ->
      match Topo.parse s with
      | Error msg ->
          checkb (s ^ " error names the field") true (contains_sub msg field);
          checkb (s ^ " error names the cap") true
            (contains_sub msg (Printf.sprintf "must be <= %d" cap))
      | Ok _ -> Alcotest.failf "%s accepted" s)
    [
      (Printf.sprintf "ring:%d" (cap + 1), "ring size");
      ("theta:99999999", "node count");
      ("random2ec:100000000:1", "node count");
      (Printf.sprintf "theta:%d" max_int, "node count");
    ];
  List.iter
    (fun s -> checkb (s ^ " accepted") true (Result.is_ok (Topo.parse s)))
    [
      Printf.sprintf "ring:%d" cap;
      Printf.sprintf "theta:%d" cap;
      Printf.sprintf "random2ec:%d:1" cap;
    ]

let test_topo_materialize () =
  let module G = Colring_graph.Gtopology in
  List.iter
    (fun (s, expect_n) ->
      let t = Result.get_ok (Topo.parse s) in
      let g = Topo.materialize ~default_n:8 t in
      checki (s ^ " node count") expect_n (G.n g);
      checki (s ^ " node_count agrees") expect_n (Topo.node_count ~default_n:8 t);
      checkb (s ^ " 2ec") true (G.is_two_edge_connected g))
    [
      ("ring", 8);
      ("ring:5", 5);
      ("theta:4", 4);
      ("theta:9", 9);
      ("k4", 4);
      ("bowtie", 5);
      ("random2ec:12:5", 12);
    ];
  checkb "ring is ring" true (Topo.is_ring (Result.get_ok (Topo.parse "ring:5")));
  checkb "theta is not ring" false
    (Topo.is_ring (Result.get_ok (Topo.parse "theta:4")))

let test_gelection_sweep_determinism () =
  let grid jobs =
    let chunks = Buffer.create 256 in
    let ms =
      Sweep.gelection ~jobs
        ~journal:(Buffer.add_string chunks)
        ~topologies:
          [ Topo.Theta 5; Topo.K4; Topo.Bowtie; Topo.Ring (Some 6) ]
        ~seeds:[ 1; 2 ]
        ~schedulers:
          [
            (fun s -> Scheduler.random (Rng.create ~seed:s));
            (fun _ -> Scheduler.fifo);
          ]
        ()
    in
    (ms, Buffer.contents chunks)
  in
  let ms1, j1 = grid 1 in
  let ms4, j4 = grid 4 in
  checkb "measurements identical across jobs" true (ms1 = ms4);
  checkb "journal identical across jobs" true (String.equal j1 j4);
  checki "grid size" (4 * 2 * 2) (List.length ms1);
  List.iter
    (fun (m : Sweep.gmeasurement) ->
      checkb (m.g_topology ^ " ok") true m.g_ok;
      checki (m.g_topology ^ " exact sends") m.g_expected m.g_sends;
      checkb (m.g_topology ^ " covered") true (m.g_covered = m.g_n))
    ms1

(* ------------------------------------------------------------------ *)
(* Robustness: the input parsers never raise *)

(* Spec lines and --topology strings built from the pieces the
   parsers split on: algorithm and family names, digit runs (some
   longer than the 19 digits an int holds), the [:], [#], tab and space
   separators, and stray printable bytes.  A third of the inputs are
   well-shaped lines ("name sep digits sep digits ...") so the accepting
   paths are exercised too. *)
let fuzz_input =
  let open QCheck.Gen in
  let digits =
    frequency [ (3, int_range 1 3); (2, int_range 4 6); (1, int_range 18 30) ]
    >>= fun len ->
    string_size ~gen:(char_range '0' '9') (return len)
  in
  let name =
    oneofl
      [
        "algo1"; "algo2"; "algo3-doubled"; "algo3-improved"; "resample"; "ring";
        "theta"; "k4"; "bowtie"; "two-ear"; "random2ec";
      ]
  in
  let sep =
    frequency
      [ (3, return " "); (2, return ":"); (1, oneofl [ "#"; "\t"; "  " ]) ]
  in
  let token =
    frequency
      [
        (3, name);
        (4, digits);
        (3, oneofl [ ":"; "#"; "\t"; " "; "-"; "+"; "0x"; "_" ]);
        (1, string_size ~gen:printable (int_range 1 3));
      ]
  in
  let soup = list_size (int_range 0 8) token in
  let shaped =
    name >>= fun n ->
    list_size (int_range 0 3) (pair sep digits) >|= fun fields ->
    n :: List.concat_map (fun (s, d) -> [ s; d ]) fields
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (map (String.concat "") (frequency [ (2, soup); (1, shaped) ]))

let no_raise what f s =
  match f s with
  | _ -> ()
  | exception e ->
      QCheck.Test.fail_reportf "%s %S raised %s" what s (Printexc.to_string e)

let prop_parse_line_total =
  QCheck.Test.make ~name:"Batch.parse_line never raises" ~count:3000
    fuzz_input (fun s ->
      no_raise "parse_line" Batch.parse_line s;
      true)

(* Whole spec files: mostly valid job lines, with blank lines,
   comments and fuzzed lines mixed in, so both verdicts occur. *)
let fuzz_spec_text =
  let open QCheck.Gen in
  let valid =
    map3
      (fun a n seed -> Printf.sprintf "%s %d %d" a n seed)
      (oneofl [ "algo1"; "algo2"; "algo3-doubled"; "algo3-improved"; "resample" ])
      (int_range 2 20) (int_range 0 99)
  in
  let line =
    frequency
      [
        (8, valid);
        (1, oneofl [ ""; "  "; "# note"; "\t# algo2 8 1" ]);
        (1, QCheck.gen fuzz_input);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (map (String.concat "\n") (list_size (int_range 0 12) line))

(* [parse_spec] never raises; [Ok] holds exactly the job lines (neither
   blank nor comment) in input order, and [Error] names the 1-based
   number of the first bad line. *)
let prop_parse_spec =
  QCheck.Test.make
    ~name:"Batch.parse_spec: the job lines in order, or the first bad line"
    ~count:2000 fuzz_spec_text (fun text ->
      no_raise "parse_spec" Batch.parse_spec text;
      let parsed = List.map Batch.parse_line (String.split_on_char '\n' text) in
      match Batch.parse_spec text with
      | Ok specs ->
          List.for_all Result.is_ok parsed
          && Array.to_list specs
             = List.filter_map
                 (function Ok (Some s) -> Some s | Ok None | Error _ -> None)
                 parsed
      | Error msg -> (
          let rec first k = function
            | [] -> None
            | Error _ :: _ -> Some k
            | Ok _ :: rest -> first (k + 1) rest
          in
          match first 1 parsed with
          | None -> false
          | Some k -> String.starts_with ~prefix:(Printf.sprintf "line %d: " k) msg))

let prop_topo_parse_total =
  QCheck.Test.make ~name:"Topo.parse never raises, Ok round-trips"
    ~count:3000 fuzz_input (fun s ->
      no_raise "Topo.parse" Topo.parse s;
      match Topo.parse s with
      | Error _ -> true
      | Ok t -> Topo.parse (Topo.to_string t) = Ok t)

(* Every [Cli] validator, on any flag and value: [Ok] exactly when the
   value meets the validator's rule, otherwise an error that leads with
   the flag and the value ("<flag> <value>: <reason>"). *)
let prop_cli_validators =
  let open QCheck.Gen in
  let int =
    frequency
      [
        (4, int_range (-5) 70);
        (1, oneofl [ min_int; max_int; -1; 0; 1; 2 ]);
        (1, int);
      ]
  in
  let name =
    frequency
      [
        (2, oneofl (List.map fst Cli.schedulers));
        (1, oneofl [ ""; "Random"; "fifo "; "bogus"; "lifo\n" ]);
        (1, string_size ~gen:printable (int_range 0 6));
      ]
  in
  let real =
    frequency
      [
        (3, float_range (-5.) 5.);
        (1, oneofl [ nan; infinity; neg_infinity; 0.; -0.; 1e-300; 1e300 ]);
        (1, float);
      ]
  in
  let flag =
    oneofl
      [
        "-j"; "-n"; "-k"; "-c"; "--id"; "--id-max"; "--max-deliveries";
        "--topology"; "--latency";
      ]
  in
  let case =
    quad (int_bound 9) flag (pair int int) (triple (option int) name real)
  in
  let print (which, flag, (v, w), (o, name, x)) =
    Printf.sprintf "validator %d %s v=%d w=%d opt=%s name=%S x=%h" which flag
      v w
      (match o with Some x -> string_of_int x | None -> "none")
      name x
  in
  QCheck.Test.make ~name:"Cli validators: Ok or an error naming the flag"
    ~count:3000 (QCheck.make ~print case)
    (fun (which, flag, (v, w), (o, name, x)) ->
      let judge ~value accept = function
        | Ok _ -> accept
        | Error msg ->
            (not accept)
            && String.starts_with ~prefix:(flag ^ " " ^ value ^ ":") msg
      in
      (* A numeric validator returns the value it accepts unchanged. *)
      let number accept r =
        judge ~value:(string_of_int v) accept r
        && match r with Ok x -> x = v | Error _ -> true
      in
      match which with
      | 0 -> number (v >= 1) (Cli.positive ~flag v)
      | 1 -> number (v >= 0) (Cli.non_negative ~flag v)
      | 2 -> number (v >= 2) (Cli.ring_size ~flag v)
      | 3 ->
          (* n(4v-1) < max_int, tested by dividing the product back. *)
          let fits =
            w < 1
            || v <= max_int / 4
               &&
               let m = (4 * v) - 1 in
               let p = w * m in
               p / w = m && p < max_int
          in
          number (v >= w && fits) (Cli.id_space ~flag ~n:w v)
      | 4 ->
          judge ~value:(string_of_int w) (v <= 60)
            (Cli.link_budget ~flag ~value:(string_of_int w) ~max:60 v)
      | 5 -> (
          match o with
          | None ->
              Cli.jobs ~flag None = Ok (Colring_runtime.Pool.default_jobs ())
          | Some x ->
              judge ~value:(string_of_int x) (x >= 1) (Cli.jobs ~flag o))
      | 6 -> (
          let r = Cli.positive_float ~flag x in
          judge ~value:(Printf.sprintf "%g" x) (Float.is_finite x && x > 0.) r
          && match r with Ok y -> Float.equal y x | Error _ -> true)
      | 7 -> number (v <= 499_999) (Cli.solitude_id ~flag v)
      | 8 ->
          judge ~value:(string_of_int w) (v <= Cli.max_live_nodes)
            (Cli.live_nodes ~flag ~value:(string_of_int w) ~backend:"socket" v)
      | _ ->
          judge ~value:name
            (List.mem_assoc name Cli.schedulers)
            (Cli.scheduler ~flag name))

let cli_tests =
  [
    Alcotest.test_case "validators" `Quick test_cli_validators;
    Alcotest.test_case "jobs default" `Quick test_cli_jobs_default;
    Alcotest.test_case "scheduler names" `Quick test_cli_scheduler;
    Alcotest.test_case "journal output paths" `Quick test_cli_output_paths;
    Alcotest.test_case "topology grammar" `Quick test_topo_parse_round_trip;
    Alcotest.test_case "topology materializer" `Quick test_topo_materialize;
    Alcotest.test_case "topology size cap" `Quick test_topo_size_cap;
    Alcotest.test_case "adversary id space" `Quick test_cli_adversary_id_space;
    Alcotest.test_case "id-max, -c and --id refusals" `Quick
      test_cli_value_refusals;
    Alcotest.test_case "id-max help defaults" `Quick test_cli_id_max_help;
    Alcotest.test_case "check link budget" `Quick test_cli_check_link_budget;
    Alcotest.test_case "live backend node cap" `Quick test_cli_live_cap;
    Alcotest.test_case "check journals the fixed instance" `Quick
      test_check_fixed_instance_journal;
    Alcotest.test_case "topology overrides refused" `Quick
      test_cli_topology_overrides;
    Alcotest.test_case "batch refuses ring:N" `Quick
      test_batch_refuses_sized_ring;
  ]

let () =
  Alcotest.run "colring-harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "decreasing" `Quick test_decreasing_is_cr_worst;
          Alcotest.test_case "duplicated max" `Quick
            test_duplicated_max_has_copies;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "grid coverage" `Quick test_sweep_grid_coverage;
          Alcotest.test_case "incompatible skipped" `Quick
            test_sweep_skips_incompatible;
          Alcotest.test_case "id cap" `Quick test_sweep_id_cap;
          Alcotest.test_case "csv" `Quick test_csv_shape;
          Alcotest.test_case "parallel determinism" `Quick
            test_sweep_parallel_determinism;
          Alcotest.test_case "scheduler seeds" `Quick
            test_sweep_scheduler_seeds;
          Alcotest.test_case "summary" `Quick test_summary_groups;
          Alcotest.test_case "graph sweep determinism" `Quick
            test_gelection_sweep_determinism;
        ] );
      ("cli", cli_tests);
      ( "robustness",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_parse_line_total;
            prop_parse_spec;
            prop_topo_parse_total;
            prop_cli_validators;
          ]
      );
    ]
