(* Domain-safety rules: the multicore engine's shared-memory contracts
   as machine checks over the Parsetree.

   Three rule families, all driven by the [shared.sexp] manifest (the
   reviewed declaration of state that is legitimately shared across
   domains — see [Lint_config.load_shared]):

   - [shared-state]: walks every closure handed to [Pool.run] /
     [Pool.map] / [Pool.exec] / [Domain.spawn] — plus the bodies of
     same-unit functions those closures call, transitively — and flags any
     mutable-field write or read, array/[Bytes] write, or [ref]
     mutation/deref whose target is neither allocated inside the
     walked code nor declared in the manifest's [(state ...)] list.
     Functions that (transitively) spawn are treated as spawn sites
     themselves, so a closure passed to a local wrapper around
     [Domain.spawn] is still patrolled.

   - [atomics-discipline]: rejects the lost-update pattern
     ([Atomic.set a] fed by [Atomic.get a] of the same atomic —
     read-modify-write must go through [fetch_and_add] or a CAS loop),
     flags CAS retry loops in hot.sexp functions that spin without a
     [Domain.cpu_relax] backoff, and requires every [Atomic.make] in
     lib/ to bind a name declared in the manifest's [(atomics ...)]
     list — an atomic nobody declared is shared state nobody reviewed.

   - [dls-discipline]: [Domain.DLS.new_key] must be a top-level
     binding (a key minted per call defeats the cache and leaks), and
     a DLS payload (a [Domain.DLS.get] binding) must not escape the
     domain that looked it up: it may not be captured by a nested
     closure or stored into other state.

   Scope: like the determinism rule these patrol lib/, bin/ and bench/
   but not test/ — tests deliberately hammer the pool with raw shared
   arrays to provoke the very races the rules forbid elsewhere.  The
   [Atomic.make] manifest requirement and the DLS rules apply to lib/
   only (binaries may keep a process-local atomic without ceremony).

   Everything here is name-based over the untyped AST: no types, no
   cross-unit bodies.  False positives are resolved by a reviewed
   shared.sexp (or allow.sexp) entry; cross-unit mutation helpers are
   out of scope by construction and belong behind their module's own
   contract. *)

open Parsetree
module SSet = Set.Make (String)

type ctx = {
  path : string;
  hot_functions : string list;
  shared : Lint_config.shared_entry;
  mutable diags : Lint_diag.t list;
}

let report ctx ~rule ~loc fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.diags <- Lint_diag.make ~rule ~file:ctx.path ~loc msg :: ctx.diags)
    fmt

let patrolled path =
  String.starts_with ~prefix:"lib/" path
  || String.starts_with ~prefix:"bin/" path
  || String.starts_with ~prefix:"bench/" path

let in_lib path = String.starts_with ~prefix:"lib/" path

(* Innermost-last components of a (possibly module-qualified) ident:
   [Colring_runtime.Pool.run] and [Pool.run] both end
   ["run"; "Pool"; ...]. *)
let rev_flat lid = List.rev (Longident.flatten lid)

let is_spawn_lid lid =
  match rev_flat lid with
  | "spawn" :: "Domain" :: _ -> true
  | ("run" | "map" | "exec") :: "Pool" :: _ -> true
  | _ -> false

let expr_to_string e = Format.asprintf "%a" Pprintast.expression e

let iter_expr f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e

let expr_contains pred e =
  let found = ref false in
  iter_expr (fun e -> if pred e then found := true) e;
  !found

let applies_lid pred e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> pred txt
  | _ -> false

let mentions_name name e =
  expr_contains
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> String.equal x name
      | _ -> false)
    e

(* ------------------------------------------------------------------ *)
(* Unit-wide pre-pass: every let-bound name (at any depth, including
   functor and local bindings), the unit's mutable record fields, and
   the set of functions that transitively reach a spawn site. *)

type unit_info = {
  bindings : (string, expression list) Hashtbl.t;
  mutable_fields : SSet.t;
  spawners : SSet.t;
}

let collect_unit structure =
  let bindings = Hashtbl.create 64 in
  let mutable_fields = ref SSet.empty in
  let add_binding name e =
    let prev =
      match Hashtbl.find_opt bindings name with Some l -> l | None -> []
    in
    Hashtbl.replace bindings name (e :: prev)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> add_binding txt vb.pvb_expr
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
              List.iter
                (fun ld ->
                  if ld.pld_mutable = Asttypes.Mutable then
                    mutable_fields := SSet.add ld.pld_name.txt !mutable_fields)
                labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  let spawners = ref SSet.empty in
  let body_spawns spawners e =
    expr_contains
      (applies_lid (fun lid ->
           is_spawn_lid lid
           ||
           match lid with
           | Longident.Lident f -> SSet.mem f spawners
           | _ -> false))
      e
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name exprs ->
        if
          (not (SSet.mem name !spawners))
          && List.exists (body_spawns !spawners) exprs
        then begin
          spawners := SSet.add name !spawners;
          changed := true
        end)
      bindings
  done;
  { bindings; mutable_fields = !mutable_fields; spawners = !spawners }

(* ------------------------------------------------------------------ *)
(* shared-state *)

(* Allocations that make a binding domain-private: the walked code
   made the object itself, so no other domain can hold it. *)
let rec is_local_alloc e =
  match e.pexp_desc with
  | Pexp_record _ | Pexp_array _ | Pexp_tuple _ -> true
  | Pexp_constraint (e, _) -> is_local_alloc e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match rev_flat txt with
      | [ "ref" ] -> true
      | "get" :: "DLS" :: "Domain" :: _ -> true
      | fn :: ("Array" | "Bytes" | "Buffer" | "Hashtbl" | "Queue" | "Stack")
        :: _ -> (
          match fn with
          | "make" | "init" | "create" | "copy" | "sub" | "of_list" | "of_seq"
          | "of_string" | "append" | "concat" | "map" | "mapi" | "make_matrix"
            ->
              true
          | _ -> false)
      | _ -> false)
  | _ -> false

(* Resolve a mutation target to the name the manifest would declare:
   the base variable, or the record field it was fetched from, chasing
   through [Array.get]/[Bytes.get] chains ([grid.(i).(j) <- v] resolves
   to [grid]). *)
type target = Var of string | Field of string

let rec target_base e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Var (Longident.last txt))
  | Pexp_field (_, { txt; _ }) -> Some (Field (Longident.last txt))
  | Pexp_constraint (e, _) -> target_base e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, a) :: _) -> (
      match rev_flat txt with
      | ("get" | "unsafe_get") :: ("Array" | "Bytes") :: _ -> target_base a
      | [ "!" ] -> target_base a
      | _ -> None)
  | _ -> None

let walk_shared_state ctx info roots =
  (* One locals table and one memo across all roots: a function body
     is walked (and its findings reported) once even when several
     spawn sites reach it. *)
  let locals = Hashtbl.create 32 in
  let walked = Hashtbl.create 16 in
  let manifested name = List.mem name ctx.shared.Lint_config.state in
  let target_ok = function
    | Some (Var x) -> Hashtbl.mem locals x || manifested x
    | Some (Field f) -> manifested f
    | None -> false
  in
  let describe = function
    | Some (Var x) -> Printf.sprintf "[%s]" x
    | Some (Field f) -> Printf.sprintf "field [%s]" f
    | None -> "an unresolvable target"
  in
  let flag ~loc ~what target =
    if not (target_ok target) then
      report ctx ~rule:"shared-state" ~loc
        "%s %s inside domain-spawned code: not locally allocated and not \
         declared in shared.sexp (state ...)"
        what (describe target)
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } when is_local_alloc vb.pvb_expr ->
                Hashtbl.replace locals txt ()
            | _ -> ())
          vbs
    | Pexp_setfield (base, { txt; _ }, _) ->
        let f = Longident.last txt in
        let base_local =
          match target_base base with
          | Some (Var x) -> Hashtbl.mem locals x
          | _ -> false
        in
        if not (base_local || manifested f) then
          report ctx ~rule:"shared-state" ~loc:e.pexp_loc
            "write to mutable field [%s] inside domain-spawned code: the \
             record is not locally allocated and the field is not declared \
             in shared.sexp (state ...)"
            f
    | Pexp_field (base, { txt; _ }) ->
        let f = Longident.last txt in
        if SSet.mem f info.mutable_fields then begin
          let base_local =
            match target_base base with
            | Some (Var x) -> Hashtbl.mem locals x
            | _ -> false
          in
          if not (base_local || manifested f) then
            report ctx ~rule:"shared-state" ~loc:e.pexp_loc
              "read of mutable field [%s] inside domain-spawned code: \
               unsynchronized cross-domain reads are racy — declare it in \
               shared.sexp (state ...) or go through an Atomic"
              f
        end
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match (rev_flat txt, args) with
        | ("set" | "unsafe_set" | "fill") :: (("Array" | "Bytes") as m) :: _,
          (_, t) :: _ ->
            flag ~loc:e.pexp_loc
              ~what:(Printf.sprintf "%s write to" m)
              (target_base t)
        | [ ":=" ], (_, t) :: _ ->
            flag ~loc:e.pexp_loc ~what:"ref assignment to" (target_base t)
        | [ ("incr" | "decr") ], [ (_, t) ] ->
            flag ~loc:e.pexp_loc ~what:"ref mutation of" (target_base t)
        | [ "!" ], [ (_, t) ] ->
            flag ~loc:e.pexp_loc ~what:"ref deref of" (target_base t)
        | [ f ], _ when Hashtbl.mem info.bindings f ->
            if not (Hashtbl.mem walked f) then begin
              Hashtbl.replace walked f ();
              List.iter
                (fun body -> it.Ast_iterator.expr it body)
                (Hashtbl.find info.bindings f)
            end
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  List.iter
    (fun root ->
      match root with
      | `Closure e -> it.Ast_iterator.expr it e
      | `Named f ->
          if not (Hashtbl.mem walked f) then begin
            Hashtbl.replace walked f ();
            match Hashtbl.find_opt info.bindings f with
            | Some bodies -> List.iter (it.Ast_iterator.expr it) bodies
            | None -> ()
          end)
    roots

(* Collect the domain roots: closure literals and same-unit function
   names passed as arguments at a spawn site. *)
let collect_roots info structure =
  let roots = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let spawnish =
          is_spawn_lid txt
          ||
          match txt with
          | Longident.Lident f -> SSet.mem f info.spawners
          | _ -> false
        in
        if spawnish then
          List.iter
            (fun (_, a) ->
              match a.pexp_desc with
              | Pexp_fun _ | Pexp_function _ -> roots := `Closure a :: !roots
              | Pexp_ident { txt = Longident.Lident f; _ }
                when Hashtbl.mem info.bindings f ->
                  roots := `Named f :: !roots
              | _ -> ())
            args
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  List.rev !roots

(* ------------------------------------------------------------------ *)
(* atomics-discipline *)

let atomics_pass ctx structure =
  let manifested name = List.mem name ctx.shared.Lint_config.atomics in
  (* Name context: the let-binding and record-field names enclosing
     the current expression, innermost first — what an [Atomic.make]
     here would be known as. *)
  let names = ref [] in
  let with_name n f =
    names := n :: !names;
    f ();
    names := List.tl !names
  in
  let get_targets v =
    let acc = ref [] in
    iter_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_apply
            ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, t) ])
          when (match rev_flat txt with
               | "get" :: "Atomic" :: _ -> true
               | _ -> false) ->
            acc := expr_to_string t :: !acc
        | _ -> ())
      v;
    !acc
  in
  let expr it e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        (match (rev_flat txt, args) with
        | "set" :: "Atomic" :: _, [ (_, a); (_, v) ] ->
            let a_str = expr_to_string a in
            if List.exists (String.equal a_str) (get_targets v) then
              report ctx ~rule:"atomics-discipline" ~loc:e.pexp_loc
                "lost update: [Atomic.set %s] is fed by [Atomic.get %s] — \
                 another domain's write between the get and the set is \
                 silently discarded; use [Atomic.fetch_and_add] or a \
                 compare_and_set loop"
                a_str a_str
        | "make" :: "Atomic" :: _, _ when in_lib ctx.path ->
            let name =
              match !names with n :: _ -> n | [] -> "<anonymous>"
            in
            if not (manifested name) then
              report ctx ~rule:"atomics-discipline" ~loc:e.pexp_loc
                "[Atomic.make] binds [%s], which is not declared in \
                 shared.sexp (atomics ...): every atomic in lib/ is \
                 cross-domain state and must be reviewed"
                name
        | _ -> ());
        Ast_iterator.default_iterator.expr it e)
    | Pexp_record (fields, base) ->
        (match base with Some b -> it.Ast_iterator.expr it b | None -> ());
        List.iter
          (fun (lid, value) ->
            with_name (Longident.last lid.Asttypes.txt) (fun () ->
                it.Ast_iterator.expr it value))
          fields
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let value_binding it vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
        (* CAS retry loops in hot functions must back off: a failed
           compare_and_set means another domain owns the cache line —
           re-spinning without [Domain.cpu_relax] ruins it for the
           winner. *)
        if
          List.mem txt ctx.hot_functions
          && expr_contains
               (applies_lid (fun lid ->
                    match rev_flat lid with
                    | "compare_and_set" :: "Atomic" :: _ -> true
                    | _ -> false))
               vb.pvb_expr
          && expr_contains
               (applies_lid (fun lid ->
                    match lid with
                    | Longident.Lident f -> String.equal f txt
                    | _ -> false))
               vb.pvb_expr
          && not
               (expr_contains
                  (applies_lid (fun lid ->
                       match rev_flat lid with
                       | "cpu_relax" :: "Domain" :: _ -> true
                       | _ -> false))
                  vb.pvb_expr)
        then
          report ctx ~rule:"atomics-discipline" ~loc:vb.pvb_loc
            "hot function [%s] retries a compare_and_set loop without \
             [Domain.cpu_relax] backoff"
            txt;
        with_name txt (fun () ->
            Ast_iterator.default_iterator.value_binding it vb)
    | _ -> Ast_iterator.default_iterator.value_binding it vb
  in
  let it = { Ast_iterator.default_iterator with expr; value_binding } in
  it.structure it structure

(* ------------------------------------------------------------------ *)
(* dls-discipline *)

let dls_pass ctx structure =
  let fun_depth = ref 0 in
  (* Names currently bound to a [Domain.DLS.get] payload. *)
  let dls_locals = ref SSet.empty in
  let is_new_key lid =
    match rev_flat lid with
    | "new_key" :: "DLS" :: "Domain" :: _ -> true
    | _ -> false
  in
  let is_dls_get e =
    applies_lid
      (fun lid ->
        match rev_flat lid with
        | "get" :: "DLS" :: "Domain" :: _ -> true
        | _ -> false)
      e
  in
  let check_stored ~loc v =
    SSet.iter
      (fun x ->
        if mentions_name x v then
          report ctx ~rule:"dls-discipline" ~loc
            "DLS payload [%s] is stored into other state: the payload \
             belongs to the domain that called [Domain.DLS.get] and must \
             not outlive its closure"
            x)
      !dls_locals
  in
  let expr it e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        (if is_new_key txt && !fun_depth > 0 then
           report ctx ~rule:"dls-discipline" ~loc:e.pexp_loc
             "[Domain.DLS.new_key] inside a function: keys must be \
              top-level bindings, or every call mints a fresh key and the \
              per-domain cache never hits");
        (match (rev_flat txt, args) with
        | ("set" | "unsafe_set" | "fill") :: ("Array" | "Bytes") :: _, _ -> (
            match List.rev args with
            | (_, v) :: _ -> check_stored ~loc:e.pexp_loc v
            | [] -> ())
        | [ ":=" ], [ _; (_, v) ] -> check_stored ~loc:e.pexp_loc v
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
    | Pexp_setfield (_, _, v) ->
        check_stored ~loc:e.pexp_loc v;
        Ast_iterator.default_iterator.expr it e
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } when is_dls_get vb.pvb_expr ->
                dls_locals := SSet.add txt !dls_locals
            | _ -> ())
          vbs;
        Ast_iterator.default_iterator.expr it e
    | Pexp_fun _ | Pexp_function _ ->
        let escaping = SSet.filter (fun x -> mentions_name x e) !dls_locals in
        SSet.iter
          (fun x ->
            report ctx ~rule:"dls-discipline" ~loc:e.pexp_loc
              "DLS payload [%s] is captured by a closure: the payload \
               belongs to the domain that called [Domain.DLS.get] — another \
               domain running this closure would race on it"
              x)
          escaping;
        (* Descend with the escaping names hidden so one leak is one
           diagnostic, not one per use site. *)
        let saved = !dls_locals in
        dls_locals := SSet.diff saved escaping;
        incr fun_depth;
        Ast_iterator.default_iterator.expr it e;
        decr fun_depth;
        dls_locals := saved
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure

(* ------------------------------------------------------------------ *)

let lint ~hot_functions ~shared ~path structure =
  let ctx = { path; hot_functions; shared; diags = [] } in
  if patrolled path then begin
    let info = collect_unit structure in
    walk_shared_state ctx info (collect_roots info structure);
    atomics_pass ctx structure;
    if in_lib path then dls_pass ctx structure
  end;
  List.rev ctx.diags
