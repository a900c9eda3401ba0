module Election = Colring_core.Election

let result_line (s : Batch.spec) (r : Election.report) =
  Printf.sprintf "%s algo=%s n=%d seed=%d leader=%s sends=%d deliveries=%d"
    (if Election.ok r then "ok" else "FAIL")
    r.Election.algorithm r.Election.n s.Batch.seed
    (match r.Election.leader with Some v -> string_of_int v | None -> "none")
    r.Election.sends r.Election.deliveries

(* Answer one wave of lines into [out], in input order; the number of
   bad lines.  The wave's jobs run as one batch on the pool, each on
   its domain's warm core.  If a job raises, the batch emits no journal, and
   the wave is re-run one job at a time in this domain, so only the
   raising line is answered [error: ...] — exactly as if each line had
   been its own batch. *)
let answer ~pool ~journal ~sched out lines =
  let parsed = List.map Batch.parse_line lines in
  let specs =
    Array.of_list
      (List.filter_map (function Ok (Some s) -> Some s | _ -> None) parsed)
  in
  let batch ?pool specs = Batch.run ?pool ?journal ~sched specs in
  let results =
    match batch ~pool specs with
    | o -> Array.map Result.ok o.Batch.reports
    | exception _ ->
        Array.map
          (fun s ->
            match batch [| s |] with
            | o -> Ok o.Batch.reports.(0)
            | exception e -> Error e)
          specs
  in
  let bad = ref 0 and next = ref 0 in
  let reply line =
    Buffer.add_string out line;
    Buffer.add_char out '\n'
  in
  List.iter
    (function
      | Ok None -> ()
      | Error msg ->
          incr bad;
          reply ("error: " ^ msg)
      | Ok (Some spec) -> (
          let r = results.(!next) in
          incr next;
          match r with
          | Ok r ->
              if not (Election.ok r) then incr bad;
              reply (result_line spec r)
          | Error e ->
              incr bad;
              reply ("error: " ^ Printexc.to_string e)))
    parsed;
  !bad

let run ~pool ?journal ~sched ~read ~write () =
  let journal = Option.map (fun emit _job chunk -> emit chunk) journal in
  let chunk = Bytes.create 65536 in
  let partial = Buffer.create 256 in
  let out = Buffer.create 4096 in
  let bad = ref 0 in
  let wave lines =
    if lines <> [] then begin
      bad := !bad + answer ~pool ~journal ~sched out lines;
      if Buffer.length out > 0 then begin
        write (Buffer.contents out);
        Buffer.clear out
      end
    end
  in
  let rec loop () =
    match read chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* A last line without a newline is still a line. *)
        if Buffer.length partial > 0 then wave [ Buffer.contents partial ]
    | k ->
        let lines = ref [] and start = ref 0 in
        for i = 0 to k - 1 do
          if Bytes.get chunk i = '\n' then begin
            Buffer.add_subbytes partial chunk !start (i - !start);
            lines := Buffer.contents partial :: !lines;
            Buffer.clear partial;
            start := i + 1
          end
        done;
        Buffer.add_subbytes partial chunk !start (k - !start);
        wave (List.rev !lines);
        loop ()
  in
  loop ();
  if !bad = 0 then 0 else 1
