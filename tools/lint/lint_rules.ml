(* The rule set, implemented as one [Ast_iterator] pass over a file's
   Parsetree.  Rules are scoped by repo-relative path, so the same
   source text can be linted "as" different files (the fixture tests
   rely on this).

   Rules:
   - [determinism]     no [Random.*] outside lib/stats/rng.ml; no
                       [Sys.time]/[Unix.gettimeofday]/[Unix.time]
                       (allow.sexp lists the reviewed readers); no
                       [Hashtbl.hash], [Marshal.*] or [Obj.*] anywhere
                       under lib/.
   - [poly-compare]    in lib/engine/: no [Stdlib.compare] or bare
                       [compare]; no [=]/[<>] unless one operand is a
                       syntactically immediate constant.  In
                       lib/engine/ and inside manifest functions
                       (hot.sexp): no bare or [Stdlib.] [max]/[min].
   - [hot-alloc]       inside manifest functions (hot.sexp): no
                       closures, tuples, records, arrays, allocating
                       constructors, [ref], [^]/[@], [Printf]/
                       [Format]/[Fmt], or partial applications of
                       same-file functions — except under a live-sink
                       guard ([if ... observed/enabled ...]).
   - [sink-discipline] no [Trace.<Constructor>] construction and no
                       [Trace.record]/[Trace.create] outside
                       lib/engine/sink.ml (pattern matches are fine).
   - [deprecated-arg]  no [~record_trace]/[?record_trace] anywhere —
                       the argument was removed; the rule guards
                       against reintroduction.
   - [mailbox-write]   outside lib/engine/ and lib/transport/, no write
                       through a [.mailbox] field: no [e.mailbox.(i) <-]
                       and no [Array.set]/[unsafe_set]/[fill]/[blit]
                       into one.  The api's [mailbox] is the engine's
                       own count array, read-only for programs.
   - [mli-coverage]    every lib/**/*.ml has a matching .mli
                       (checked over file lists, see {!mli_coverage}).

   The domain-safety rules ([shared-state] / [atomics-discipline] /
   [dls-discipline]) live in lint_domain.ml, driven by the
   shared.sexp manifest. *)

open Parsetree

type ctx = {
  path : string;
  hot_functions : string list;
  (* Name of the manifest function currently being walked, if any. *)
  mutable hot : string option;
  (* > 0 inside an [if] branch guarded by a live-sink check — the
     slow path where allocation is the point. *)
  mutable guard_depth : int;
  (* Arity of every top-level function of this file, for the
     partial-application check. *)
  arity : (string, int) Hashtbl.t;
  mutable diags : Lint_diag.t list;
}

let report ctx ~rule ~loc fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.diags <- Lint_diag.make ~rule ~file:ctx.path ~loc msg :: ctx.diags)
    fmt

let starts_with prefix s = String.starts_with ~prefix s
let in_lib ctx = starts_with "lib/" ctx.path
let in_engine ctx = starts_with "lib/engine/" ctx.path
let dotted lid = String.concat "." (Longident.flatten lid)

(* ------------------------------------------------------------------ *)
(* determinism *)

let check_determinism ctx ~loc lid =
  match Longident.flatten lid with
  | "Random" :: _ :: _ when not (String.equal ctx.path "lib/stats/rng.ml") ->
      report ctx ~rule:"determinism" ~loc
        "%s: ambient randomness breaks run reproducibility; draw from the \
         seeded Colring_stats.Rng streams (only lib/stats/rng.ml may touch \
         Random)"
        (dotted lid)
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      report ctx ~rule:"determinism" ~loc
        "%s: wall-clock reads make runs irreproducible; measure speed with \
         perfbench/, or inject the clock"
        (dotted lid)
  | ("Marshal" | "Obj") :: _ :: _ when in_lib ctx ->
      report ctx ~rule:"determinism" ~loc
        "%s: unsafe / representation-dependent primitives are forbidden in \
         lib/"
        (dotted lid)
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] when in_lib ctx ->
      report ctx ~rule:"determinism" ~loc
        "%s: polymorphic hashing is representation-dependent and forbidden \
         in lib/"
        (dotted lid)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* poly-compare *)

let rec syntactically_immediate e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  (* Constant constructors: true / false / () / [] / None and any
     immediate enum constructor. *)
  | Pexp_construct (_, None) -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> syntactically_immediate e
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("~-" | "~+"); _ }; _ },
        [ (_, e) ] ) ->
      syntactically_immediate e
  | _ -> false

(* Flags bare [compare] / [Stdlib.compare] anywhere in lib/engine/,
   and first-class [(=)] / [(<>)] (the fully applied binary form is
   judged by {!check_poly_compare_apply} instead).  [max] / [min] are
   flagged there and in every hot function: they are polymorphic, so
   each use is a call ending in [caml_greaterequal] / [caml_lessequal],
   even at type int. *)
let check_poly_compare_ident ctx ~loc lid =
  (match Longident.flatten lid with
  | [ (("max" | "min") as f) ] | [ "Stdlib"; (("max" | "min") as f) ]
    when in_engine ctx || Option.is_some ctx.hot ->
      report ctx ~rule:"poly-compare" ~loc
        "polymorphic %s in lib/engine/ or a hot function; use Int.%s, or an \
         inline comparison on the delivery path"
        f f
  | _ -> ());
  if in_engine ctx then
    match Longident.flatten lid with
    | [ "compare" ] | [ "Stdlib"; "compare" ] ->
        report ctx ~rule:"poly-compare" ~loc
          "polymorphic compare in lib/engine/; use Int.compare (or a \
           per-type compare)"
    | [ (("=" | "<>") as op) ] | [ "Stdlib"; (("=" | "<>") as op) ] ->
        report ctx ~rule:"poly-compare" ~loc
          "first-class polymorphic (%s) in lib/engine/; use a monomorphic \
           equality such as Int.equal"
          op
    | _ -> ()

let check_poly_compare_apply ctx ~loc op args =
  if in_engine ctx then
    match args with
    | [ (_, a); (_, b) ]
      when not (syntactically_immediate a || syntactically_immediate b) ->
        report ctx ~rule:"poly-compare" ~loc
          "(%s) at a possibly non-immediate type in lib/engine/; use \
           Int.equal / Bool.equal / Port.equal / Output.equal, or compare \
           against a literal"
          op
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* sink-discipline *)

let check_sink_discipline_construct ctx ~loc lid =
  match Longident.flatten lid with
  | "Trace" :: _ :: _ when not (String.equal ctx.path "lib/engine/sink.ml") ->
      report ctx ~rule:"sink-discipline" ~loc
        "%s: Trace events may only be constructed by lib/engine/sink.ml \
         (Sink.memory is the one emission path); consume traces through \
         Trace.events / Trace.consumed_ports instead"
        (dotted lid)
  | _ -> ()

let check_sink_discipline_ident ctx ~loc lid =
  match Longident.flatten lid with
  | [ "Trace"; ("record" | "create") ]
    when not (String.equal ctx.path "lib/engine/sink.ml") ->
      report ctx ~rule:"sink-discipline" ~loc
        "%s: trace buffers are built by Sink.memory only; pass \
         ~sink:(Sink.memory ()) and read the buffer back"
        (dotted lid)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* deprecated-arg *)

(* [?record_trace] was removed outright (DESIGN.md section 6); the
   rule survives as the anti-reintroduction guard, with no exempt
   definition sites left — the label may not appear anywhere, not
   even where it used to be defined. *)
let check_deprecated_label ctx ~loc label =
  match label with
  | Asttypes.Labelled "record_trace" | Asttypes.Optional "record_trace" ->
      report ctx ~rule:"deprecated-arg" ~loc
        "?record_trace was removed (DESIGN.md section 6); pass \
         ~sink:(Sink.memory ()) and read the buffer with Network.trace"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* mailbox-write *)

(* The array an [Array] call writes into, if [lid] names one of the
   writers: the first argument of [set]/[unsafe_set]/[fill] (which
   [e.(i) <- v] desugars to), the third of [blit]. *)
let written_array lid args =
  let lid =
    match Longident.flatten lid with "Stdlib" :: rest -> rest | l -> l
  in
  match (lid, List.map snd args) with
  | [ "Array"; ("set" | "unsafe_set" | "fill") ], a :: _ -> Some a
  | [ "Array"; "blit" ], _ :: _ :: a :: _ -> Some a
  | _ -> None

let is_mailbox_field e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Longident.flatten txt) with
      | "mailbox" :: _ -> true
      | _ -> false)
  | _ -> false

let check_mailbox_write ctx ~loc lid args =
  if
    (not (in_engine ctx))
    && (not (starts_with "lib/transport/" ctx.path))
    && Option.fold ~none:false ~some:is_mailbox_field (written_array lid args)
  then
    report ctx ~rule:"mailbox-write" ~loc
      "%s into a [.mailbox] field: an api's mailbox is the engine's own \
       count array (written only under lib/engine/ and lib/transport/); \
       programs may only read it"
      (dotted lid)

(* ------------------------------------------------------------------ *)
(* hot-alloc *)

let hot_report ctx ~loc what =
  match ctx.hot with
  | Some fn when ctx.guard_depth = 0 ->
      report ctx ~rule:"hot-alloc" ~loc
        "%s inside hot function [%s] (hot.sexp manifest); the delivery hot \
         path must stay allocation-free — move it behind the sink guard or \
         out of the hot function"
        what fn
  | _ -> ()

let formatting_module lid =
  match Longident.flatten lid with
  | ("Printf" | "Format" | "Fmt") :: _ :: _ -> true
  | _ -> false

(* Does a guard condition consult the live-sink switches?  [observed]
   is the Network field caching [sink.enabled]; either spelling marks
   the deliberate pay-when-observed slow path. *)
let mentions_sink_guard cond =
  let found = ref false in
  let check_lid lid =
    match List.rev (Longident.flatten lid) with
    | last :: _
      when String.equal last "observed" || String.equal last "enabled" ->
        found := true
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_lid txt
          | Pexp_field (_, { txt; _ }) -> check_lid txt
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it cond;
  !found

(* ------------------------------------------------------------------ *)
(* Arity pre-pass (for the partial-application check) *)

let rec count_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> 1 + count_params body
  | Pexp_newtype (_, body) -> count_params body
  | Pexp_function _ -> 1
  | _ -> 0

let collect_arities structure =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  let arity = count_params vb.pvb_expr in
                  if arity > 0 then Hashtbl.replace tbl txt arity
              | _ -> ())
            bindings
      | _ -> ())
    structure;
  tbl

(* ------------------------------------------------------------------ *)
(* The expression walker *)

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr it e =
    let loc = e.pexp_loc in
    (* Checks on this node. *)
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        check_determinism ctx ~loc txt;
        check_poly_compare_ident ctx ~loc txt;
        check_sink_discipline_ident ctx ~loc txt;
        if formatting_module txt then
          hot_report ctx ~loc (Printf.sprintf "formatting (%s)" (dotted txt))
    | Pexp_construct ({ txt; _ }, arg) ->
        check_sink_discipline_construct ctx ~loc txt;
        if Option.is_some arg then
          hot_report ctx ~loc "allocating constructor application"
    | Pexp_fun (label, _, _, _) ->
        check_deprecated_label ctx ~loc label;
        hot_report ctx ~loc "closure"
    | Pexp_function _ -> hot_report ctx ~loc "closure"
    | Pexp_tuple _ -> hot_report ctx ~loc "tuple allocation"
    | Pexp_record _ -> hot_report ctx ~loc "record allocation"
    | Pexp_array _ -> hot_report ctx ~loc "array literal"
    | Pexp_variant (_, Some _) -> hot_report ctx ~loc "polymorphic variant"
    | Pexp_lazy _ -> hot_report ctx ~loc "lazy thunk"
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        (match Longident.flatten txt with
        | [ "ref" ] -> hot_report ctx ~loc "ref cell allocation"
        | [ ("^" | "@" | "^^") ] ->
            hot_report ctx ~loc "string/list concatenation"
        | [ ("=" | "<>") ] -> ()
        | [ f ] -> (
            match Hashtbl.find_opt ctx.arity f with
            | Some arity when List.length args < arity ->
                hot_report ctx ~loc
                  (Printf.sprintf
                     "partial application of [%s] (%d of %d arguments)" f
                     (List.length args) arity)
            | _ -> ())
        | _ -> ());
        check_mailbox_write ctx ~loc txt args;
        List.iter (fun (label, _) -> check_deprecated_label ctx ~loc label) args
    | Pexp_apply (_, args) ->
        List.iter (fun (label, _) -> check_deprecated_label ctx ~loc label) args
    | _ -> ());
    (* Traversal, with two custom cases. *)
    match e.pexp_desc with
    | Pexp_ifthenelse (cond, then_, else_)
      when Option.is_some ctx.hot && mentions_sink_guard cond ->
        (* The guard test itself runs on the hot path; its branches are
           the deliberate pay-when-observed slow path. *)
        it.Ast_iterator.expr it cond;
        ctx.guard_depth <- ctx.guard_depth + 1;
        it.Ast_iterator.expr it then_;
        Option.iter (it.Ast_iterator.expr it) else_;
        ctx.guard_depth <- ctx.guard_depth - 1
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); _ }; _ },
          ([ _; _ ] as args) ) ->
        (* Binary [=] / [<>]: judge by operand immediacy and walk only
           the operands, so the callee ident is not double-flagged by
           the first-class-(=) check above. *)
        check_poly_compare_apply ctx ~loc op args;
        List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | _ -> default.expr it e
  in
  (* Hot-function parameters are not closures: unwrap the leading
     [fun] chain of a manifest binding before applying the allocation
     checks to its body. *)
  let rec walk_hot_body it e =
    match e.pexp_desc with
    | Pexp_fun (label, default_e, pat, body) ->
        check_deprecated_label ctx ~loc:e.pexp_loc label;
        Option.iter (it.Ast_iterator.expr it) default_e;
        it.Ast_iterator.pat it pat;
        walk_hot_body it body
    | Pexp_newtype (_, body) -> walk_hot_body it body
    | _ -> it.Ast_iterator.expr it e
  in
  let structure_item it item =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } when List.mem txt ctx.hot_functions ->
                ctx.hot <- Some txt;
                it.Ast_iterator.pat it vb.pvb_pat;
                walk_hot_body it vb.pvb_expr;
                ctx.hot <- None
            | _ ->
                it.Ast_iterator.pat it vb.pvb_pat;
                it.Ast_iterator.expr it vb.pvb_expr)
          bindings
    | _ -> default.structure_item it item
  in
  { default with expr; structure_item }

let lint_structure ~hot_functions ~path structure =
  let ctx =
    {
      path;
      hot_functions;
      hot = None;
      guard_depth = 0;
      arity = collect_arities structure;
      diags = [];
    }
  in
  let it = make_iterator ctx in
  it.Ast_iterator.structure it structure;
  List.rev ctx.diags

let lint_signature ~path signature =
  (* Interfaces hold no expressions; walking them validates syntax and
     keeps the door open for signature-level rules. *)
  ignore path;
  let it = Ast_iterator.default_iterator in
  it.Ast_iterator.signature it signature;
  []

(* ------------------------------------------------------------------ *)
(* mli-coverage (path-list level, no parsing needed) *)

let mli_coverage ~ml_files ~mli_files =
  let mli_set = List.sort_uniq String.compare mli_files in
  let has_mli ml = List.mem (ml ^ "i") mli_set in
  List.filter_map
    (fun ml ->
      if starts_with "lib/" ml && not (has_mli ml) then
        Some
          {
            Lint_diag.rule = "mli-coverage";
            file = ml;
            line = 1;
            col = 0;
            msg =
              Printf.sprintf
                "%s has no matching .mli; every lib/ module must declare \
                 its interface"
                ml;
          }
      else None)
    ml_files
