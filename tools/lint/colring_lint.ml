(* colring-lint: repo-aware static analysis for the colring engine.

   Usage:
     colring-lint --allow FILE --hot FILE [--shared FILE] [--json]
                  [--check-allow] PATH...

   Exit codes: 0 clean, 1 violations (or allowlist problems), 2 usage
   or configuration errors.

   --shared names the shared.sexp manifest consumed by the
   domain-safety rules; without it those rules run against an empty
   manifest (every cross-domain mutation flags).

   --json replaces the human-readable report with one machine-readable
   JSON object on stdout (violations + stale/missing allow entries +
   counts) — the CI artifact that makes rule hits diffable across PRs.
   Exit codes are unchanged.

   --check-allow only validates the manifests — every allow.sexp,
   hot.sexp and shared.sexp entry must name an existing file, and every
   hot function and shared atomic or state name must be bound in its
   file — the CI guard that keeps the escape hatches honest without a
   full tree walk. *)

open Colring_lint_core

let usage () =
  prerr_endline
    "usage: colring-lint --allow FILE --hot FILE [--shared FILE] [--json] \
     [--check-allow] PATH...";
  exit 2

let () =
  let allow_path = ref None in
  let hot_path = ref None in
  let shared_path = ref None in
  let check_allow = ref false in
  let json = ref false in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allow" :: v :: rest ->
        allow_path := Some v;
        parse rest
    | "--hot" :: v :: rest ->
        hot_path := Some v;
        parse rest
    | "--shared" :: v :: rest ->
        shared_path := Some v;
        parse rest
    | "--check-allow" :: rest ->
        check_allow := true;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | arg :: rest ->
        if String.starts_with ~prefix:"-" arg then usage ();
        roots := arg :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let allow_path = match !allow_path with Some p -> p | None -> usage () in
  let hot_path = match !hot_path with Some p -> p | None -> usage () in
  let allow, hot_manifest, shared_manifest =
    try
      ( Lint_config.load_allow allow_path,
        Lint_config.load_hot hot_path,
        match !shared_path with
        | Some p -> Lint_config.load_shared p
        | None -> [] )
    with
    | Lint_config.Config_error msg | Lint_sexp.Parse_error msg ->
      Printf.eprintf "colring-lint: configuration error: %s\n" msg;
      exit 2
  in
  if !check_allow then (
    let missing_allow =
      List.filter
        (fun (e : Lint_config.allow_entry) -> not (Sys.file_exists e.file))
        allow
    in
    let missing_files manifest entries =
      List.filter_map
        (fun (f, _) -> if Sys.file_exists f then None else Some (manifest, f))
        entries
    in
    let missing =
      missing_files "hot.sexp" hot_manifest
      @ missing_files "shared.sexp" shared_manifest
    in
    let unbound =
      Lint_driver.unbound_manifest_names ~hot_manifest ~shared_manifest
    in
    List.iter
      (fun (e : Lint_config.allow_entry) ->
        Printf.eprintf
          "colring-lint: allow.sexp entry (rule %s) names missing file %s\n"
          e.rule e.file)
      missing_allow;
    List.iter
      (fun (manifest, f) ->
        Printf.eprintf "colring-lint: %s entry names missing file %s\n"
          manifest f)
      missing;
    List.iter
      (fun (manifest, f, name) ->
        Printf.eprintf "colring-lint: %s names %s, which %s does not bind\n"
          manifest name f)
      unbound;
    if missing_allow = [] && missing = [] && unbound = [] then (
      Printf.printf
        "colring-lint: %d allow, %d hot and %d shared entries, all files \
         present and all names bound\n"
        (List.length allow) (List.length hot_manifest)
        (List.length shared_manifest);
      exit 0)
    else exit 1);
  if !roots = [] then usage ();
  let result =
    Lint_driver.lint_tree ~hot_manifest ~shared_manifest ~allow
      (List.rev !roots)
  in
  let violations = List.length result.Lint_driver.kept in
  let dirty =
    violations > 0 || result.stale <> [] || result.missing <> []
  in
  if !json then begin
    let entry_json (e : Lint_config.allow_entry) =
      Printf.sprintf {|{"rule":"%s","file":"%s"}|}
        (Lint_diag.json_escape e.rule)
        (Lint_diag.json_escape e.file)
    in
    Printf.printf
      {|{"violations":[%s],"stale_allow":[%s],"missing_allow":[%s],"violation_count":%d,"clean":%b}|}
      (String.concat "," (List.map Lint_diag.to_json result.kept))
      (String.concat "," (List.map entry_json result.stale))
      (String.concat "," (List.map entry_json result.missing))
      violations (not dirty);
    print_newline ()
  end
  else begin
    List.iter
      (fun d -> print_endline (Lint_diag.to_string d))
      result.Lint_driver.kept;
    List.iter
      (fun (e : Lint_config.allow_entry) ->
        Printf.eprintf
          "colring-lint: stale allow.sexp entry (rule %s, file %s) suppressed \
           nothing — remove it\n"
          e.rule e.file)
      result.stale;
    List.iter
      (fun (e : Lint_config.allow_entry) ->
        Printf.eprintf
          "colring-lint: allow.sexp entry (rule %s) names missing file %s\n"
          e.rule e.file)
      result.missing
  end;
  if dirty then (
    Printf.eprintf "colring-lint: %d violation%s\n" violations
      (if violations = 1 then "" else "s");
    exit 1)
  else if not !json then print_endline "colring-lint: clean"
