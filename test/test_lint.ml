(* Tests for colring-lint: every rule is exercised against an
   in-tree fixture, both firing (under the path the rule patrols) and
   non-firing (under an exempt path, or a clean fixture under the
   patrolled path).  The self-run over the real tree is the @lint
   alias, which dune runtest depends on. *)

open Colring_lint_core

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* The manifest used by the hot-alloc fixtures: a queue's push and
   pop, as the real hot.sexp entry for network.ml lists its queues'. *)
let hot_manifest = [ ("lib/engine/network.ml", [ "push"; "pop" ]) ]

(* dune runtest runs with cwd = test/; dune exec from the root. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

(* Lint fixture [name] as if it lived at repo path [as_path]; return
   the rule names that fired.  [shared] is the shared.sexp manifest
   for the domain-safety rules (empty by default: nothing declared). *)
let rules_of ?(hot = hot_manifest) ?(shared = []) name ~as_path =
  Lint_driver.lint_file ~as_path ~hot_manifest:hot ~shared_manifest:shared
    (fixture name)
  |> List.map (fun d -> d.Lint_diag.rule)

let shared_entry ~file ?(atomics = []) ?(state = []) () =
  [ (file, { Lint_config.atomics; state; note = "test manifest" }) ]

let count rule rules =
  List.length (List.filter (String.equal rule) rules)

(* ------------------------------------------------------------------ *)
(* determinism *)

let test_determinism_random () =
  checki "fires in engine" 1
    (count "determinism" (rules_of "det_random.ml" ~as_path:"lib/engine/x.ml"));
  checki "rng.ml exempt" 0
    (count "determinism"
       (rules_of "det_random.ml" ~as_path:"lib/stats/rng.ml"));
  checki "fires in test too" 1
    (count "determinism" (rules_of "det_random.ml" ~as_path:"test/x.ml"))

let test_determinism_clock () =
  checki "fires in lib" 2
    (count "determinism" (rules_of "det_clock.ml" ~as_path:"lib/core/x.ml"));
  checki "fires in bench too" 2
    (count "determinism" (rules_of "det_clock.ml" ~as_path:"bench/x.ml"))

let test_determinism_unsafe () =
  checki "fires in lib" 3
    (count "determinism" (rules_of "det_unsafe.ml" ~as_path:"lib/engine/x.ml"));
  checki "bench exempt" 0
    (count "determinism" (rules_of "det_unsafe.ml" ~as_path:"bench/x.ml"))

(* ------------------------------------------------------------------ *)
(* poly-compare *)

let test_poly_compare () =
  checki "bad fixture fires" 5
    (count "poly-compare"
       (rules_of "polycmp_bad.ml" ~as_path:"lib/engine/x.ml"));
  checki "scoped to engine" 0
    (count "poly-compare" (rules_of "polycmp_bad.ml" ~as_path:"lib/core/x.ml"));
  checki "max in a hot function outside the engine" 1
    (count "poly-compare"
       (rules_of "polycmp_bad.ml" ~as_path:"lib/core/x.ml"
          ~hot:[ ("lib/core/x.ml", [ "m1" ]) ]));
  checki "immediate operands pass" 0
    (count "poly-compare"
       (rules_of "polycmp_ok.ml" ~as_path:"lib/engine/x.ml"))

(* ------------------------------------------------------------------ *)
(* hot-alloc *)

let test_hot_alloc () =
  let fired = rules_of "hot_bad.ml" ~as_path:"lib/engine/network.ml" in
  checki "tuple, closure, printf, partial app" 4 (count "hot-alloc" fired);
  checki "not hot under another path" 0
    (count "hot-alloc" (rules_of "hot_bad.ml" ~as_path:"lib/engine/other.ml"));
  checki "guarded and cold allocations pass" 0
    (count "hot-alloc" (rules_of "hot_ok.ml" ~as_path:"lib/engine/network.ml"))

(* ------------------------------------------------------------------ *)
(* sink-discipline *)

let test_sink_discipline () =
  checki "construction fires" 2
    (count "sink-discipline"
       (rules_of "sink_bad.ml" ~as_path:"lib/engine/diagram.ml"));
  checki "sink.ml exempt" 0
    (count "sink-discipline"
       (rules_of "sink_bad.ml" ~as_path:"lib/engine/sink.ml"));
  checki "pattern matching passes" 0
    (count "sink-discipline"
       (rules_of "sink_ok.ml" ~as_path:"lib/engine/diagram.ml"))

(* ------------------------------------------------------------------ *)
(* deprecated-arg *)

let test_deprecated_arg () =
  checki "call site and forwarding param fire" 3
    (count "deprecated-arg" (rules_of "depr_arg.ml" ~as_path:"test/x.ml"));
  (* The argument is gone; its old definition sites are no longer
     exempt — the rule now guards against reintroduction anywhere. *)
  checki "former definition site fires too" 3
    (count "deprecated-arg"
       (rules_of "depr_arg.ml" ~as_path:"lib/engine/network.ml"))

(* ------------------------------------------------------------------ *)
(* mailbox-write *)

let test_mailbox_write () =
  checki "writes into .mailbox fire in a program" 4
    (count "mailbox-write"
       (rules_of "mailbox_bad.ml" ~as_path:"lib/core/algo3.ml"));
  checki "and in a test" 4
    (count "mailbox-write" (rules_of "mailbox_bad.ml" ~as_path:"test/x.ml"));
  checki "the engine owns the counts" 0
    (count "mailbox-write"
       (rules_of "mailbox_bad.ml" ~as_path:"lib/engine/transport.ml"));
  checki "and so do the live backends" 0
    (count "mailbox-write"
       (rules_of "mailbox_bad.ml" ~as_path:"lib/transport/domains.ml"))

(* ------------------------------------------------------------------ *)
(* shared-state *)

let test_shared_state () =
  checki "array writes (run, exec), field write+read, callee Bytes write" 5
    (count "shared-state"
       (rules_of "shared_bad.ml" ~as_path:"lib/runtime/x.ml"));
  checki "tests are not patrolled" 0
    (count "shared-state" (rules_of "shared_bad.ml" ~as_path:"test/x.ml"));
  checki "local allocs and manifested state pass" 0
    (count "shared-state"
       (rules_of "shared_ok.ml" ~as_path:"lib/runtime/x.ml"
          ~shared:
            (shared_entry ~file:"lib/runtime/x.ml" ~state:[ "results" ] ())));
  checki "manifest entry is load-bearing" 1
    (count "shared-state" (rules_of "shared_ok.ml" ~as_path:"lib/runtime/x.ml"))

(* ------------------------------------------------------------------ *)
(* atomics-discipline *)

let test_atomics_discipline () =
  let hot = [ ("lib/runtime/x.ml", [ "spin" ]) ] in
  checki "unmanifested make, lost update, CAS without backoff" 3
    (count "atomics-discipline"
       (rules_of "atomics_bad.ml" ~as_path:"lib/runtime/x.ml" ~hot));
  checki "tests are not patrolled" 0
    (count "atomics-discipline"
       (rules_of "atomics_bad.ml" ~as_path:"test/x.ml"));
  checki "manifested make, fetch_and_add, backed-off CAS pass" 0
    (count "atomics-discipline"
       (rules_of "atomics_ok.ml" ~as_path:"lib/runtime/x.ml" ~hot
          ~shared:
            (shared_entry ~file:"lib/runtime/x.ml" ~atomics:[ "total" ] ())))

(* ------------------------------------------------------------------ *)
(* dls-discipline *)

let test_dls_discipline () =
  checki "nested new_key, stored payload, captured payload" 3
    (count "dls-discipline"
       (rules_of "dls_bad.ml" ~as_path:"lib/harness/x.ml"));
  checki "top-level key with domain-local payload passes" 0
    (count "dls-discipline" (rules_of "dls_ok.ml" ~as_path:"lib/harness/x.ml"))

(* ------------------------------------------------------------------ *)
(* shared.sexp / hot.sexp manifest pins *)

(* The real manifests must keep covering the multicore core: if an
   entry is dropped, the clean-tree run (@lint, pulled in by runtest)
   and this pin both fail. *)
let repo_file p = if Sys.file_exists p then p else Filename.concat ".." p

let test_manifest_pins () =
  let shared =
    Lint_config.load_shared (repo_file "tools/lint/shared.sexp")
  in
  List.iter
    (fun file ->
      match List.assoc_opt file shared with
      | Some e ->
          checkb (file ^ " has a review note") true
            (String.length e.Lint_config.note > 0)
      | None -> Alcotest.failf "shared.sexp lost its entry for %s" file)
    [ "lib/runtime/pool.ml"; "lib/transport/domains.ml"; "lib/harness/batch.ml" ];
  let hot = Lint_config.load_hot (repo_file "tools/lint/hot.sexp") in
  checkb "gelection walk step is patrolled" true
    (List.mem "walk_step"
       (Lint_config.hot_functions hot ~file:"lib/graph/gelection.ml"))

(* ------------------------------------------------------------------ *)
(* parse-error *)

let test_parse_error () =
  checki "syntax error is a diagnostic" 1
    (count "parse-error" (rules_of "parse_bad.ml" ~as_path:"lib/engine/x.ml"))

(* ------------------------------------------------------------------ *)
(* mli-coverage *)

let test_mli_coverage () =
  let diags =
    Lint_rules.mli_coverage
      ~ml_files:[ "lib/engine/a.ml"; "lib/engine/b.ml"; "bin/main.ml" ]
      ~mli_files:[ "lib/engine/a.mli" ]
  in
  checki "one uncovered lib module" 1 (List.length diags);
  checkb "names the module" true
    (match diags with
    | [ d ] -> String.equal d.Lint_diag.file "lib/engine/b.ml"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* allowlist *)

let test_allowlist () =
  let diag rule file =
    { Lint_diag.rule; file; line = 1; col = 0; msg = "m" }
  in
  let entry rule file = { Lint_config.rule; file; note = "n" } in
  let existing = fixture "det_random.ml" in
  let r =
    Lint_driver.apply_allowlist
      [ entry "determinism" existing; entry "hot-alloc" "missing.ml" ]
      [ diag "determinism" existing; diag "poly-compare" "lib/a.ml" ]
  in
  checki "suppressed one" 1 (List.length r.Lint_driver.kept);
  checki "unused entry is stale" 1 (List.length r.stale);
  checki "absent file reported" 1 (List.length r.missing)

(* ------------------------------------------------------------------ *)
(* manifest names *)

(* --check-allow's name check: a manifest name its file does not bind
   (left behind by a rename or a deletion) is reported, one per name;
   functions, let-bound atomics and declared or filled record labels
   all count as bound. *)
let test_manifest_names () =
  let file = fixture "manifest_names.ml" in
  Alcotest.(check (list (triple string string string)))
    "stale names"
    [
      ("hot.sexp", file, "retired");
      ("shared.sexp", file, "deques");
      ("shared.sexp", file, "filled");
    ]
    (Lint_driver.unbound_manifest_names
       ~hot_manifest:[ (file, [ "claim"; "retired" ]) ]
       ~shared_manifest:
         (shared_entry ~file
            ~atomics:[ "cursor"; "remaining"; "deques" ]
            ~state:[ "busy"; "filled" ] ()));
  checki "a missing file is not a name problem" 0
    (List.length
       (Lint_driver.unbound_manifest_names
          ~hot_manifest:[ ("no/such/file.ml", [ "f" ]) ]
          ~shared_manifest:[]))

(* ------------------------------------------------------------------ *)
(* config parsing *)

let test_config () =
  let sexps =
    Lint_sexp.parse_string
      "; comment\n(hot (file lib/engine/network.ml) (functions push pop))"
  in
  checki "one form" 1 (List.length sexps);
  let tmp = Filename.temp_file "lint" ".sexp" in
  Out_channel.with_open_text tmp (fun oc ->
      output_string oc
        "(allow (rule determinism) (file lib/x.ml) (note \"why\"))\n");
  let entries = Lint_config.load_allow tmp in
  Sys.remove tmp;
  checkb "entry parsed" true
    (match entries with
    | [ e ] ->
        String.equal e.Lint_config.rule "determinism"
        && String.equal e.file "lib/x.ml"
        && String.equal e.note "why"
    | _ -> false)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism random" `Quick
            test_determinism_random;
          Alcotest.test_case "determinism clock" `Quick test_determinism_clock;
          Alcotest.test_case "determinism unsafe" `Quick
            test_determinism_unsafe;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "hot-alloc" `Quick test_hot_alloc;
          Alcotest.test_case "sink-discipline" `Quick test_sink_discipline;
          Alcotest.test_case "deprecated-arg" `Quick test_deprecated_arg;
          Alcotest.test_case "mailbox-write" `Quick test_mailbox_write;
          Alcotest.test_case "shared-state" `Quick test_shared_state;
          Alcotest.test_case "atomics-discipline" `Quick
            test_atomics_discipline;
          Alcotest.test_case "dls-discipline" `Quick test_dls_discipline;
          Alcotest.test_case "manifest pins" `Quick test_manifest_pins;
          Alcotest.test_case "parse-error" `Quick test_parse_error;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "config" `Quick test_config;
          Alcotest.test_case "manifest names" `Quick test_manifest_names;
        ] );
    ]
