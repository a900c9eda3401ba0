let legend =
  "legend: > clockwise pulse delivered, < counterclockwise pulse delivered,\n\
  \        L decided Leader, l decided Non-Leader, X terminated"

(* Event rows printed before the rest are elided. *)
let max_rows = 500

let render trace ~n =
  let buf = Buffer.create 1024 in
  let header = Buffer.create 64 in
  Buffer.add_string header "  step |";
  for v = 0 to n - 1 do
    Buffer.add_string header (Printf.sprintf "%3d" v)
  done;
  Buffer.add_string buf (Buffer.contents header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length (Buffer.contents header)) '-');
  Buffer.add_char buf '\n';
  let rows = ref 0 in
  let step = ref 0 in
  let emit node ch =
    incr rows;
    if !rows <= max_rows then begin
      Buffer.add_string buf (Printf.sprintf "%6d |" !step);
      for v = 0 to n - 1 do
        Buffer.add_string buf
          (if Int.equal v node then Printf.sprintf "  %c" ch else "  .")
      done;
      Buffer.add_char buf '\n'
    end
  in
  List.iter
    (fun event ->
      match event with
      | Trace.Deliver { node; port; _ } ->
          incr step;
          emit node (match port with Port.P0 -> '>' | Port.P1 -> '<')
      | Trace.Decide { node; output } ->
          let ch =
            match output.Output.role with
            | Output.Leader -> 'L'
            | Output.Non_leader -> 'l'
            | Output.Undecided -> '?'
          in
          emit node ch
      | Trace.Terminate { node } -> emit node 'X'
      | Trace.Send _ | Trace.Consume _ -> ())
    (Trace.events trace);
  if !rows > max_rows then
    Buffer.add_string buf
      (Printf.sprintf "... (%d rows elided)\n" (!rows - max_rows));
  Buffer.contents buf
