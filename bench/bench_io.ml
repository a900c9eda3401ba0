(* A minimal JSON value, writer and reader, without a JSON dependency:
   [colring journal] reads and validates run journals with it, and the
   tests read journals back and round-trip values. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec emit buf indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          emit buf (indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          emit buf (indent + 2) x)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* {2 Reading}

   A parser for JSON as the journals and this writer emit it, so
   [colring journal] can validate a journal line by line and tests can
   round-trip. *)

exception Parse_error of string

let max_depth = 512

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'u' ->
              (* Decode to a raw byte when it fits, as [escape] only
                 emits \u for control characters. *)
              if !pos + 4 >= len then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              if code < 0x100 then Buffer.add_char buf (Char.chr code)
              else fail "non-latin \\u escape unsupported";
              pos := !pos + 4
          | _ -> fail "bad escape");
          advance ();
          go ())
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          go ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad float"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad int"
  in
  (* Nesting is bounded so a hostile line cannot overflow the stack. *)
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value (depth + 1))
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_int = function Int i -> Some i | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

(* {2 Journal lines}

   Shape validation for the JSONL run journals the Sink layer writes
   ([--journal FILE]).  One function per line keeps the schema
   knowledge next to the parser, where the round-trip tests and the
   [colring journal] validator both find it. *)

let check_journal_line json =
  let int = function Int _ -> true | _ -> false in
  let str = function String _ -> true | _ -> false in
  let bool = function Bool _ -> true | _ -> false in
  let obj = function Obj _ -> true | _ -> false in
  let counters = function
    | Obj (_ :: _ as fields) -> List.for_all (fun (_, v) -> int v) fields
    | _ -> false
  in
  (* [Ok typ], or an error naming the record type and its first
     missing or mistyped field. *)
  let require typ fields =
    match
      List.find_opt
        (fun (k, ok) ->
          match member k json with Some v -> not (ok v) | None -> true)
        fields
    with
    | None -> Ok typ
    | Some (k, _) ->
        Error (Printf.sprintf "%s record: missing or mistyped field %S" typ k)
  in
  match member "type" json with
  | Some (String typ) -> (
      match typ with
      | "send" ->
          require typ
            [
              ("node", int); ("port", int); ("seq", int); ("link", int);
              ("cw", bool);
            ]
      | "deliver" | "drop" ->
          require typ [ ("node", int); ("port", int); ("seq", int) ]
      | "consume" -> require typ [ ("node", int); ("port", int) ]
      | "wake" | "terminate" -> require typ [ ("node", int) ]
      | "decide" -> require typ [ ("node", int); ("role", str) ]
      | "run_start" ->
          require typ
            [
              ("algorithm", str); ("n", int); ("seed", int); ("workload", str);
            ]
      | "snapshot" -> require typ [ ("step", int); ("counters", counters) ]
      | "run_end" -> require typ [ ("algorithm", str); ("deliveries", int) ]
      | "row" -> require typ [ ("table", str); ("fields", obj) ]
      | other -> Error (Printf.sprintf "unknown record type %S" other))
  | Some _ | None ->
      Error
        (if obj json then "missing or non-string \"type\" field"
         else "journal line is not a JSON object with a \"type\" field")
