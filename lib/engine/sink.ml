type value = Bool of bool | Int of int | Float of float | String of string

type t = {
  name : string;
  enabled : bool;
  on_send : node:int -> port:int -> seq:int -> link:int -> cw:bool -> unit;
  on_deliver : node:int -> port:int -> seq:int -> unit;
  on_drop : node:int -> port:int -> seq:int -> unit;
  on_consume : node:int -> port:int -> unit;
  on_wake : node:int -> unit;
  on_decide : node:int -> output:Output.t -> unit;
  on_terminate : node:int -> unit;
  on_run_start : (string * value) list -> unit;
  on_snapshot : step:int -> (string * int) list -> unit;
  on_run_end : (string * value) list -> unit;
  on_row : table:string -> (string * value) list -> unit;
  flush : unit -> unit;
  buffer : Trace.t option;
}

let null =
  {
    name = "null";
    enabled = false;
    on_send = (fun ~node:_ ~port:_ ~seq:_ ~link:_ ~cw:_ -> ());
    on_deliver = (fun ~node:_ ~port:_ ~seq:_ -> ());
    on_drop = (fun ~node:_ ~port:_ ~seq:_ -> ());
    on_consume = (fun ~node:_ ~port:_ -> ());
    on_wake = (fun ~node:_ -> ());
    on_decide = (fun ~node:_ ~output:_ -> ());
    on_terminate = (fun ~node:_ -> ());
    on_run_start = (fun _ -> ());
    on_snapshot = (fun ~step:_ _ -> ());
    on_run_end = (fun _ -> ());
    on_row = (fun ~table:_ _ -> ());
    flush = (fun () -> ());
    buffer = None;
  }

let memory () =
  let tr = Trace.create () in
  {
    null with
    name = "memory";
    enabled = true;
    on_send = (fun ~node ~port ~seq ~link:_ ~cw:_ ->
      Trace.record tr (Trace.Send { node; port = Port.of_index port; seq }));
    on_deliver = (fun ~node ~port ~seq ->
      Trace.record tr (Trace.Deliver { node; port = Port.of_index port; seq }));
    (* No [on_drop]: the pre-sink [Trace] recorded nothing for
       post-termination arrivals, and solitude extraction depends on
       consumed-port sequences only. *)
    on_consume = (fun ~node ~port ->
      Trace.record tr (Trace.Consume { node; port = Port.of_index port }));
    on_decide = (fun ~node ~output ->
      Trace.record tr (Trace.Decide { node; output }));
    on_terminate = (fun ~node -> Trace.record tr (Trace.Terminate { node }));
    buffer = Some tr;
  }

let counters m =
  {
    null with
    name = "counters";
    enabled = true;
    on_send = (fun ~node:_ ~port:_ ~seq:_ ~link:_ ~cw -> Metrics.on_send m ~cw);
    on_deliver = (fun ~node:_ ~port:_ ~seq:_ -> Metrics.on_deliver m);
    on_drop = (fun ~node:_ ~port:_ ~seq:_ ->
      Metrics.on_post_termination_delivery m);
    on_consume = (fun ~node:_ ~port:_ -> Metrics.on_consume m);
    on_wake = (fun ~node:_ -> Metrics.on_wake m);
  }

(* --------------------------------------------------------------- *)
(* JSONL *)

let escape_json buf s =
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

let add_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* Mirrors the Bench_io writer, so journals and reports agree. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s ->
      Buffer.add_char buf '"';
      escape_json buf s;
      Buffer.add_char buf '"'

let add_key buf k =
  Buffer.add_char buf '"';
  escape_json buf k;
  Buffer.add_string buf "\":"

let add_field buf k v =
  Buffer.add_char buf ',';
  add_key buf k;
  add_value buf v

let add_fields buf fields = List.iter (fun (k, v) -> add_field buf k v) fields

let jsonl ?(events = true) ~emit () =
  let buf = Buffer.create 256 in
  let start typ =
    Buffer.clear buf;
    Buffer.add_string buf "{\"type\":\"";
    Buffer.add_string buf typ;
    Buffer.add_char buf '"'
  in
  let finish () =
    Buffer.add_char buf '}';
    emit (Buffer.contents buf)
  in
  let int_field k i =
    Buffer.add_char buf ',';
    add_key buf k;
    Buffer.add_string buf (string_of_int i)
  in
  let event3 typ ~node ~port ~seq =
    start typ;
    int_field "node" node;
    int_field "port" port;
    int_field "seq" seq;
    finish ()
  in
  let base =
    {
      null with
      name = "jsonl";
      enabled = true;
      on_run_start = (fun meta ->
        start "run_start";
        add_fields buf meta;
        finish ());
      on_snapshot = (fun ~step counters ->
        start "snapshot";
        int_field "step" step;
        Buffer.add_string buf ",\"counters\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_key buf k;
            Buffer.add_string buf (string_of_int v))
          counters;
        Buffer.add_char buf '}';
        finish ());
      on_run_end = (fun fields ->
        start "run_end";
        add_fields buf fields;
        finish ());
      on_row = (fun ~table fields ->
        start "row";
        add_field buf "table" (String table);
        Buffer.add_string buf ",\"fields\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_key buf k;
            add_value buf v)
          fields;
        Buffer.add_char buf '}';
        finish ());
    }
  in
  if not events then base
  else
    {
      base with
      on_send = (fun ~node ~port ~seq ~link ~cw ->
        start "send";
        int_field "node" node;
        int_field "port" port;
        int_field "seq" seq;
        int_field "link" link;
        Buffer.add_string buf (if cw then ",\"cw\":true" else ",\"cw\":false");
        finish ());
      on_deliver = (fun ~node ~port ~seq -> event3 "deliver" ~node ~port ~seq);
      on_drop = (fun ~node ~port ~seq -> event3 "drop" ~node ~port ~seq);
      on_consume = (fun ~node ~port ->
        start "consume";
        int_field "node" node;
        int_field "port" port;
        finish ());
      on_wake = (fun ~node ->
        start "wake";
        int_field "node" node;
        finish ());
      on_decide = (fun ~node ~(output : Output.t) ->
        start "decide";
        int_field "node" node;
        add_field buf "role" (String (Output.role_to_string output.role));
        (match output.cw_port with
        | Some p -> int_field "cw_port" (Port.index p)
        | None -> ());
        (match output.value with Some v -> int_field "value" v | None -> ());
        finish ());
      on_terminate = (fun ~node ->
        start "terminate";
        int_field "node" node;
        finish ());
    }

let jsonl_buffer ?events out =
  jsonl ?events ()
    ~emit:(fun line ->
      Buffer.add_string out line;
      Buffer.add_char out '\n')

let jsonl_channel ?events oc =
  let pending = Buffer.create 65536 in
  let flush_pending () =
    Buffer.output_buffer oc pending;
    Buffer.clear pending
  in
  let s =
    jsonl ?events ()
      ~emit:(fun line ->
        Buffer.add_string pending line;
        Buffer.add_char pending '\n';
        if Buffer.length pending >= 65536 then flush_pending ())
  in
  {
    s with
    flush = (fun () ->
      flush_pending ();
      Stdlib.flush oc);
  }

let with_jsonl_channel ?events oc f =
  let sink = jsonl_channel ?events oc in
  Fun.protect
    ~finally:(fun () ->
      (* Flush even when [f] raises: a journal whose run died mid-way
         must still hold every record emitted before the failure (the
         valid-prefix guarantee fastsim's over-budget exception and the
         engine's own invariant failures rely on). *)
      sink.flush ();
      close_out oc)
    (fun () -> f sink)

let tee a b =
  if a == null then b
  else if b == null then a
  else
    {
      name = a.name ^ "+" ^ b.name;
      enabled = a.enabled || b.enabled;
      on_send = (fun ~node ~port ~seq ~link ~cw ->
        a.on_send ~node ~port ~seq ~link ~cw;
        b.on_send ~node ~port ~seq ~link ~cw);
      on_deliver = (fun ~node ~port ~seq ->
        a.on_deliver ~node ~port ~seq;
        b.on_deliver ~node ~port ~seq);
      on_drop = (fun ~node ~port ~seq ->
        a.on_drop ~node ~port ~seq;
        b.on_drop ~node ~port ~seq);
      on_consume = (fun ~node ~port ->
        a.on_consume ~node ~port;
        b.on_consume ~node ~port);
      on_wake = (fun ~node ->
        a.on_wake ~node;
        b.on_wake ~node);
      on_decide = (fun ~node ~output ->
        a.on_decide ~node ~output;
        b.on_decide ~node ~output);
      on_terminate = (fun ~node ->
        a.on_terminate ~node;
        b.on_terminate ~node);
      on_run_start = (fun meta ->
        a.on_run_start meta;
        b.on_run_start meta);
      on_snapshot = (fun ~step counters ->
        a.on_snapshot ~step counters;
        b.on_snapshot ~step counters);
      on_run_end = (fun fields ->
        a.on_run_end fields;
        b.on_run_end fields);
      on_row = (fun ~table fields ->
        a.on_row ~table fields;
        b.on_row ~table fields);
      flush = (fun () ->
        a.flush ();
        b.flush ());
      buffer = (match a.buffer with Some _ -> a.buffer | None -> b.buffer);
    }

let trace t = t.buffer
