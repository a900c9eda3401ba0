(* Bench entry point.

   Usage:
     dune exec bench/main.exe                -- every experiment table
     dune exec bench/main.exe -- quick       -- reduced sweeps
     dune exec bench/main.exe -- e2 e6       -- selected experiments
     dune exec bench/main.exe -- -j 4 e2     -- sweep tables on 4 domains
     dune exec bench/main.exe -- --journal bench.jsonl e2
                                             -- also journal every table row

   The experiment tables run their independent rows/trials on the
   lib/runtime domain pool; -j N (or COLRING_JOBS) picks the domain
   count.  The output is bit-identical for every N apart from the
   "domains:" header, and so is the --journal file: no table reads a
   clock, and rows are appended (and journaled) in case order after
   each parallel batch drains.  Speed is measured by perfbench/, whose
   runs bench/ledger.py records in BENCH_engine.json. *)

module Sink = Colring_engine.Sink
module Cli = Colring_harness.Cli

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec extract_opts acc jobs journal = function
    | [] -> (jobs, journal, List.rev acc)
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some j ->
            let j = Cli.exit_or ~cmd:"bench" (Cli.positive ~flag:"-j" j) in
            extract_opts acc (Some j) journal rest
        | None ->
            prerr_endline ("bench: -j " ^ v ^ ": expected an integer");
            exit 2)
    | ("-j" | "--jobs") :: [] ->
        prerr_endline "bench: -j expects a value";
        exit 2
    | "--journal" :: path :: rest -> extract_opts acc jobs (Some path) rest
    | "--journal" :: [] ->
        prerr_endline "bench: --journal expects a file";
        exit 2
    | x :: rest -> extract_opts (x :: acc) jobs journal rest
  in
  let jobs_opt, journal, args = extract_opts [] None None args in
  let jobs = Cli.exit_or ~cmd:"bench" (Cli.jobs ~flag:"-j" jobs_opt) in
  let quick = List.mem "quick" args in
  let selected = List.filter (fun a -> a <> "quick") args in
  let known = "e18" :: List.init 16 (fun i -> Printf.sprintf "e%d" (i + 1)) in
  List.iter
    (fun a ->
      if not (List.mem a known) then begin
        prerr_endline
          ("bench: unknown selection " ^ a ^ ", expected quick, e1..e16 or e18");
        exit 2
      end)
    selected;
  let want name = selected = [] || List.mem name selected in
  Printf.printf
    "colring bench — Content-Oblivious Leader Election on Rings\n\
     (Frei, Gelles, Ghazy, Nolin; DISC 2024)\n\
     mode: %s, domains: %d\n"
    (if quick then "quick" else "full")
    jobs;
  let run_selected sink =
    (* E16 first: its socket backend forks, and Unix.fork is forbidden
       once any pool-using experiment below has spawned a domain. *)
    if want "e16" then Experiments.e16 ~sink ~quick;
    if want "e1" then (Experiments.e1 ~sink ~jobs ~quick; Experiments.e1_dup ~sink ~jobs ~quick);
    if want "e2" then Experiments.e2 ~sink ~jobs ~quick;
    if want "e3" || want "e4" then Experiments.e3_e4 ~sink ~jobs ~quick;
    if want "e5" then Experiments.e5 ~sink ~jobs ~quick;
    if want "e6" then (Experiments.e6 ~sink ~quick; Experiments.e6b ~sink ~quick);
    if want "e7" then Experiments.e7 ~sink ~jobs ~quick;
    if want "e8" then Experiments.e8 ~sink ~quick;
    if want "e9" then Experiments.e9 ~sink ~jobs ~quick;
    if want "e10" then Experiments.e10 ~sink ~quick;
    if want "e11" then Experiments.e11 ~sink ~quick;
    if want "e12" then Experiments.e12 ~sink ~jobs ~quick;
    if want "e13" then Experiments.e13 ~sink ~jobs ~quick;
    if want "e14" then Experiments.e14 ~sink;
    if want "e15" then Experiments.e15 ~sink ~jobs ~quick;
    if want "e18" then Experiments.e18 ~sink ~jobs ~quick
  in
  (* The journal sink flushes on ALL exits (valid prefix even when an
     experiment raises); without a journal it is the null sink. *)
  match journal with
  | None -> run_selected Sink.null
  | Some path -> Sink.with_jsonl_channel (open_out path) run_selected
