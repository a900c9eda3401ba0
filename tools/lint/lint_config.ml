(* Configuration files of the analyzer:

   - [allow.sexp]: the reviewed list of intentional rule exceptions.
     Each entry suppresses one rule in one file and must carry a note
     saying why the exception is sound:

       (allow (rule deprecated-arg) (file test/test_sink.ml)
              (note "the equivalence test exists to exercise it"))

   - [hot.sexp]: the manifest of hot functions the allocation rule
     patrols:

       (hot (file lib/engine/network.ml) (functions push pop head_seq))

   - [shared.sexp]: the manifest of state legitimately shared across
     domains, consumed by the domain-safety rules (lint_domain.ml).
     [(atomics ...)] names the bindings/fields an [Atomic.make] in
     that file may create; [(state ...)] names the mutable
     fields/arrays/refs domain-spawned code may touch; [(note ...)]
     says why the sharing is sound (disjoint index ownership, mutex,
     join happens-before, ...) and is mandatory:

       (shared (file lib/runtime/pool.ml)
               (atomics cursor failure)
               (state out filled)
               (note "one writer per index, published by the join")) *)

type allow_entry = { rule : string; file : string; note : string }

type shared_entry = {
  atomics : string list;
  state : string list;
  note : string;
}

let empty_shared = { atomics = []; state = []; note = "" }

exception Config_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Config_error s)) fmt

let field name items =
  List.find_map
    (function
      | Lint_sexp.List (Atom k :: rest) when String.equal k name -> Some rest
      | _ -> None)
    items

let atom_field name items =
  match field name items with
  | Some [ Lint_sexp.Atom v ] -> Some v
  | Some _ -> fail "field (%s ...) must hold exactly one atom" name
  | None -> None

let load_allow path =
  Lint_sexp.load path
  |> List.map (function
       | Lint_sexp.List (Atom "allow" :: fields) ->
           let get name =
             match atom_field name fields with
             | Some v -> v
             | None -> fail "%s: allow entry missing (%s ...)" path name
           in
           { rule = get "rule"; file = get "file"; note = get "note" }
       | _ -> fail "%s: every top-level form must be (allow ...)" path)

let load_hot path =
  Lint_sexp.load path
  |> List.map (function
       | Lint_sexp.List (Atom "hot" :: fields) ->
           let file =
             match atom_field "file" fields with
             | Some v -> v
             | None -> fail "%s: hot entry missing (file ...)" path
           in
           let functions =
             match field "functions" fields with
             | Some atoms ->
                 List.map
                   (function
                     | Lint_sexp.Atom a -> a
                     | List _ -> fail "%s: (functions ...) holds atoms" path)
                   atoms
             | None -> fail "%s: hot entry missing (functions ...)" path
           in
           (file, functions)
       | _ -> fail "%s: every top-level form must be (hot ...)" path)

let hot_functions manifest ~file =
  match List.assoc_opt file manifest with Some fns -> fns | None -> []

let load_shared path =
  Lint_sexp.load path
  |> List.map (function
       | Lint_sexp.List (Atom "shared" :: fields) ->
           let file =
             match atom_field "file" fields with
             | Some v -> v
             | None -> fail "%s: shared entry missing (file ...)" path
           in
           let names name =
             match field name fields with
             | Some atoms ->
                 List.map
                   (function
                     | Lint_sexp.Atom a -> a
                     | List _ -> fail "%s: (%s ...) holds atoms" path name)
                   atoms
             | None -> []
           in
           let note =
             match atom_field "note" fields with
             | Some v -> v
             | None -> fail "%s: shared entry for %s missing (note ...)" path file
           in
           (file, { atomics = names "atomics"; state = names "state"; note })
       | _ -> fail "%s: every top-level form must be (shared ...)" path)

let shared_for manifest ~file =
  match List.assoc_opt file manifest with
  | Some e -> e
  | None -> empty_shared
