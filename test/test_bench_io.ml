(* Tests for the JSON reader/writer behind [colring journal]: values
   round-trip through to_string/of_string, the accessors behave on
   nested objects, and the reader and the journal-line validator
   survive fuzzed input. *)

let checkb = Alcotest.(check bool)

let sample =
  Bench_io.(
    Obj
      [
        ("schema_version", Int 2);
        ("domains_recommended", Int 1);
        ("note", String "quote \" backslash \\ newline \n tab \t done");
        ("flags", List [ Bool true; Bool false ]);
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ( "sweep",
          Obj
            [
              ("speedup_4_vs_1", Float 0.5);
              ("cells_per_sec", Float 1234.5);
              ("whole", Float 3.0);
              ("ints", List [ Int 1; Int (-2); Int 3 ]);
            ] );
      ])

let test_round_trip () =
  let once = Bench_io.to_string sample in
  let reparsed = Bench_io.of_string once in
  checkb "value round-trips" true (reparsed = sample);
  Alcotest.(check string) "fixpoint" once (Bench_io.to_string reparsed)

let test_accessors () =
  let open Bench_io in
  checkb "schema_version" true
    (Option.bind (member "schema_version" sample) get_int = Some 2);
  checkb "missing member" true (member "absent" sample = None);
  let sweep = Option.get (member "sweep" sample) in
  checkb "nested member" true (member "whole" sweep = Some (Float 3.0));
  checkb "string field" true
    (Option.bind (member "note" sample) get_string
    = Some "quote \" backslash \\ newline \n tab \t done");
  checkb "mistyped field" true (get_int (Float 0.5) = None);
  checkb "bool" true (get_bool (Bool false) = Some false)

let test_parse_errors () =
  let fails s =
    match Bench_io.of_string s with
    | exception Bench_io.Parse_error _ -> true
    | _ -> false
  in
  checkb "trailing garbage" true (fails "{} x");
  checkb "unterminated string" true (fails "\"abc");
  checkb "bare word" true (fails "nope");
  checkb "unclosed object" true (fails "{\"a\": 1")

(* ------------------------------------------------------------------ *)
(* Fuzzers: the journal reader never raises anything but [Parse_error],
   and the line validator never raises and names what it rejects. *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* A real journal line of every record type, as [Sink.jsonl_buffer]
   writes them. *)
let journal_lines =
  [
    {|{"type":"run_start","algorithm":"algo2","n":4,"id_max":8,"seed":1,"workload":"-","scheduler":"random"}|};
    {|{"type":"wake","node":0}|};
    {|{"type":"send","node":0,"port":1,"seq":0,"link":1,"cw":true}|};
    {|{"type":"deliver","node":1,"port":0,"seq":0}|};
    {|{"type":"consume","node":1,"port":0}|};
    {|{"type":"decide","node":1,"role":"non_leader","cw_port":null}|};
    {|{"type":"snapshot","step":12,"counters":{"sends":12,"deliveries":12}}|};
    {|{"type":"run_end","algorithm":"algo2","deliveries":12,"ok":true,"ratio":0.5e1}|};
    {|{"type":"row","table":"check","fields":{"states":3,"s":"a\"b\u0041"}}|};
    {|[1, -2, [], {}, "x\n", false]|};
  ]

(* Mutated journal lines (bytes replaced, dropped or inserted, and
   some cut short)
   and soup from the characters JSON is made of. *)
let fuzz_text =
  let open QCheck.Gen in
  let json_char =
    frequency
      [
        (3, oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; ' '; 'u'; 'e' ]);
        (3, char_range '0' '9');
        (1, oneofl [ '-'; '+'; '.'; 't'; 'f'; 'n'; 'x' ]);
        (1, char);
      ]
  in
  let mutate line =
    let* edits =
      list_size (int_range 1 4)
        (triple (int_bound (String.length line - 1)) (int_bound 2) json_char)
    in
    let b = Buffer.create (String.length line + 4) in
    String.iteri
      (fun i c ->
        match List.find_opt (fun (at, _, _) -> at = i) edits with
        | Some (_, 0, r) -> Buffer.add_char b r (* replace *)
        | Some (_, 1, _) -> () (* drop *)
        | Some (_, _, r) ->
            (* insert *)
            Buffer.add_char b c;
            Buffer.add_char b r
        | None -> Buffer.add_char b c)
      line;
    let s = Buffer.contents b in
    let* cut = int_bound (String.length s) in
    frequency [ (3, return s); (1, return (String.sub s 0 cut)) ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (frequency
       [
         (3, oneofl journal_lines >>= mutate);
         (1, string_size ~gen:json_char (int_range 0 40));
       ])

let prop_of_string_total =
  QCheck.Test.make ~name:"of_string raises nothing but Parse_error"
    ~count:5000 fuzz_text (fun s ->
      match Bench_io.of_string s with
      | _ | (exception Bench_io.Parse_error _) -> true)

let test_deep_nesting () =
  checkb "a deeply nested line is a parse error" true
    (match Bench_io.of_string (String.make 1_000_000 '[') with
    | _ -> false
    | exception Bench_io.Parse_error msg -> contains msg "nesting")

(* Journal-shaped values: an object with a ["type"] (a known record
   type, another string, or not a string) and a random subset of the
   fields the known types require, each of a random kind. *)
let record_types =
  [
    "send"; "deliver"; "drop"; "consume"; "wake"; "terminate"; "decide";
    "run_start"; "snapshot"; "run_end"; "row";
  ]

let field_names =
  [
    "node"; "port"; "seq"; "link"; "cw"; "role"; "algorithm"; "n"; "seed";
    "workload"; "step"; "counters"; "deliveries"; "table"; "fields";
  ]

let gen_value =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        map (fun i -> Bench_io.Int i) small_signed_int;
        map (fun b -> Bench_io.Bool b) bool;
        map
          (fun s -> Bench_io.String s)
          (string_size ~gen:printable (int_range 0 4));
        return (Bench_io.Float 1.5);
      ]
  in
  frequency
    [
      (4, scalar);
      (1, return (Bench_io.List []));
      (1, return (Bench_io.Obj []));
      ( 1,
        map
          (fun l -> Bench_io.Obj l)
          (list_size (int_range 1 3)
             (pair (oneofl [ "sends"; "x" ]) scalar)) );
    ]

let gen_record =
  let open QCheck.Gen in
  let* typ =
    frequency
      [
        (6, map (fun t -> Some (Bench_io.String t)) (oneofl record_types));
        ( 1,
          map
            (fun t -> Some (Bench_io.String t))
            (string_size ~gen:printable (int_range 0 5)) );
        (1, map Option.some gen_value);
        (1, return None);
      ]
  in
  let* fields =
    list (pair (oneofl field_names) gen_value)
  in
  let fields =
    match typ with Some t -> ("type", t) :: fields | None -> fields
  in
  frequency [ (8, return (Bench_io.Obj fields)); (1, gen_value) ]

let prop_check_journal_line =
  QCheck.Test.make ~name:"check_journal_line names the record type or field"
    ~count:5000
    (QCheck.make ~print:Bench_io.to_string gen_record)
    (fun json ->
      match Bench_io.check_journal_line json with
      | Ok typ -> Bench_io.member "type" json = Some (Bench_io.String typ)
      | Error msg -> (
          match Bench_io.member "type" json with
          | Some (Bench_io.String typ) when List.mem typ record_types ->
              (* A known record: the message names it and one of its
                 fields. *)
              contains msg (Printf.sprintf "%s record" typ)
              && List.exists
                   (fun f -> contains msg (Printf.sprintf "%S" f))
                   field_names
          | Some (Bench_io.String typ) -> contains msg (Printf.sprintf "%S" typ)
          | Some _ | None -> contains msg "\"type\""))

let () =
  Alcotest.run "colring-bench-io"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
        ] );
      ( "fuzz",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_of_string_total; prop_check_journal_line ] );
    ]
