open Colring_engine

type msg =
  | Probe of { id : int; phase : int; hops : int }
  | Reply of { id : int; phase : int }
  | Announce of int

let program ~id =
  if id < 1 then invalid_arg "Hirschberg_sinclair.program: id must be positive";
  (* [replies] counts replies received for the current phase; a node
     stops being a candidate implicitly by never completing a phase. *)
  let phase = ref 0 in
  let replies = ref 0 in
  let elected = ref false in
  let done_ = ref false in
  let send_probes (api : msg Network.api) =
    let m = Probe { id; phase = !phase; hops = 1 } in
    api.send Port.P0 m;
    api.send Port.P1 m
  in
  let start api = send_probes api in
  let handle (api : msg Network.api) from m =
    let back = from and onward = Port.opposite from in
    match m with
    | Probe p ->
        if p.id > id then begin
          if p.hops < 1 lsl p.phase then
            api.send onward (Probe { p with hops = p.hops + 1 })
          else api.send back (Reply { id = p.id; phase = p.phase })
        end
        else if p.id = id && not !elected then begin
          (* Own probe went all the way around: elected. *)
          elected := true;
          api.set_output Output.leader;
          api.send Port.P1 (Announce id)
        end
        (* p.id < id, or duplicate round-trip of our own probe: swallow. *)
    | Reply r ->
        if r.id <> id then api.send onward (Reply r)
        else if r.phase = !phase then begin
          incr replies;
          if !replies = 2 then begin
            incr phase;
            replies := 0;
            send_probes api
          end
        end
    | Announce e ->
        done_ := true;
        if e = id then api.terminate ()
        else begin
          api.set_output Output.non_leader;
          api.send Port.P1 (Announce e);
          api.terminate ()
        end
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && not !done_ do
      match api.recv Port.P0 with
      | Some m -> handle api Port.P0 m
      | None -> (
          match api.recv Port.P1 with
          | Some m -> handle api Port.P1 m
          | None -> continue := false)
    done
  in
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            [|
              !phase;
              !replies;
              (if !elected then 1 else 0);
              (if !done_ then 1 else 0);
            |]);
        load =
          (fun a ->
            phase := a.(0);
            replies := a.(1);
            elected := a.(2) = 1;
            done_ := a.(3) = 1);
      }
  in
  {
    Network.start;
    wake;
    inspect = (fun () -> [ ("phase", !phase); ("replies", !replies) ]);
    snap;
  }

let message_bound ~n =
  let rec ceil_log2 acc v = if 1 lsl acc >= v then acc else ceil_log2 (acc + 1) v in
  (8 * n * (ceil_log2 0 n + 1)) + (2 * n)
