(* File discovery, parsing, and allowlist application.

   The driver walks the requested roots (lib/ bin/ bench/ test/ in the
   @lint alias), lints every .ml/.mli it finds, checks mli coverage
   over the collected paths, and then filters the diagnostics through
   allow.sexp.  Allow entries are themselves checked: an entry whose
   file no longer exists, or that suppressed nothing this run, is an
   error — the allowlist self-cleans. *)

let normalize path =
  if String.starts_with ~prefix:"./" path then
    String.sub path 2 (String.length path - 2)
  else path

(* ------------------------------------------------------------------ *)
(* Discovery *)

let skip_dir name =
  String.equal name "_build"
  || String.equal name "lint_fixtures"
  || (String.length name > 0 && Char.equal name.[0] '.')

let is_source name =
  (String.length name > 0 && not (Char.equal name.[0] '.'))
  && (Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli")

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           let child = Filename.concat path name in
           if Sys.is_directory child then
             if skip_dir name then acc else walk acc child
           else if is_source name then child :: acc
           else acc)
         acc
  else if is_source (Filename.basename path) then path :: acc
  else acc

let collect_files roots =
  List.fold_left walk [] roots |> List.rev_map normalize
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Parsing and per-file linting *)

let parse_error_diag path exn =
  let loc =
    match exn with
    | Syntaxerr.Error e -> Syntaxerr.location_of_error e
    | Lexer.Error (_, loc) -> loc
    | _ -> Location.in_file path
  in
  [
    Lint_diag.make ~rule:"parse-error" ~file:path ~loc
      (Printf.sprintf "does not parse: %s" (Printexc.to_string exn));
  ]

(* [as_path] is the repo-relative path rule scoping is computed
   against; it defaults to the (normalized) on-disk path.  The fixture
   tests lint files stored under test/lint_fixtures/ "as" virtual
   lib/engine/... paths. *)
let lint_file ?as_path ~hot_manifest ?(shared_manifest = []) path =
  let rpath = match as_path with Some p -> p | None -> normalize path in
  let src = In_channel.with_open_bin path In_channel.input_all in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf rpath;
  if Filename.check_suffix rpath ".mli" then
    try Lint_rules.lint_signature ~path:rpath (Parse.interface lexbuf)
    with exn -> parse_error_diag rpath exn
  else
    try
      let hot_functions =
        Lint_config.hot_functions hot_manifest ~file:rpath
      in
      let structure = Parse.implementation lexbuf in
      Lint_rules.lint_structure ~hot_functions ~path:rpath structure
      @ Lint_domain.lint ~hot_functions
          ~shared:(Lint_config.shared_for shared_manifest ~file:rpath)
          ~path:rpath structure
    with exn -> parse_error_diag rpath exn

(* ------------------------------------------------------------------ *)
(* Allowlist application *)

type result = {
  kept : Lint_diag.t list;  (** diagnostics not covered by allow.sexp *)
  stale : Lint_config.allow_entry list;  (** entries that suppressed nothing *)
  missing : Lint_config.allow_entry list;  (** entries naming absent files *)
}

let entry_matches (e : Lint_config.allow_entry) (d : Lint_diag.t) =
  String.equal e.rule d.rule && String.equal e.file d.file

let apply_allowlist entries diags =
  let used = Hashtbl.create 8 in
  let kept =
    List.filter
      (fun d ->
        match List.find_opt (fun e -> entry_matches e d) entries with
        | Some e ->
            Hashtbl.replace used (e.Lint_config.rule, e.file) ();
            false
        | None -> true)
      diags
  in
  let stale =
    List.filter
      (fun (e : Lint_config.allow_entry) ->
        not (Hashtbl.mem used (e.rule, e.file)))
      entries
  in
  let missing =
    List.filter
      (fun (e : Lint_config.allow_entry) -> not (Sys.file_exists e.file))
      entries
  in
  { kept; stale; missing }

(* ------------------------------------------------------------------ *)
(* Whole-tree run *)

let lint_tree ~hot_manifest ?(shared_manifest = []) ~allow roots =
  let files = collect_files roots in
  let ml_files = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let mli_files = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let diags =
    List.concat_map (fun f -> lint_file ~hot_manifest ~shared_manifest f) files
    @ Lint_rules.mli_coverage ~ml_files ~mli_files
  in
  apply_allowlist allow (List.sort_uniq Lint_diag.compare diags)

(* ------------------------------------------------------------------ *)
(* Manifest names *)

(* The names [path] binds: pattern variables at any depth (let, fun,
   match), record labels it declares, and record labels it fills — what
   hot-alloc, shared-state and atomics-discipline can match a manifest
   name against. *)
let bound_names path =
  let names = Hashtbl.create 64 in
  let add name = Hashtbl.replace names name () in
  let pat it p =
    (match p.Parsetree.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> add txt
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let label_declaration it (ld : Parsetree.label_declaration) =
    add ld.pld_name.txt;
    Ast_iterator.default_iterator.label_declaration it ld
  in
  let expr it e =
    (match e.Parsetree.pexp_desc with
    | Pexp_record (fields, _) ->
        List.iter (fun (lid, _) -> add (Longident.last lid.Asttypes.txt)) fields
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it =
    { Ast_iterator.default_iterator with pat; label_declaration; expr }
  in
  let src = In_channel.with_open_bin path In_channel.input_all in
  it.structure it (Parse.implementation (Lexing.from_string src));
  names

(* Every hot.sexp function and shared.sexp atomic or state name that
   its (existing) file does not bind, as (manifest, file, name): an
   entry left behind by a rename or a deletion patrols nothing. *)
let unbound_manifest_names ~hot_manifest ~shared_manifest =
  let entries =
    List.map (fun (file, fns) -> ("hot.sexp", file, fns)) hot_manifest
    @ List.map
        (fun (file, (e : Lint_config.shared_entry)) ->
          ("shared.sexp", file, e.atomics @ e.state))
        shared_manifest
  in
  List.concat_map
    (fun (manifest, file, names) ->
      if not (Sys.file_exists file) then []
      else
        let bound = bound_names file in
        List.filter_map
          (fun name ->
            if Hashtbl.mem bound name then None else Some (manifest, file, name))
          names)
    entries
