open Colring_engine

type msg =
  | Probe of { id : int; phase : int; hops : int }
  | Reply of { id : int; phase : int }
  | Announce of int

let program ~id =
  if id < 1 then invalid_arg "Hirschberg_sinclair.program: id must be positive";
  (* The register file: the view [phase] and [replies] (replies
     received for the current phase; a node stops being a candidate
     implicitly by never completing a phase), then the hidden elected
     and done flags. *)
  let c = [| 0; 0; 0; 0 |] in
  let phase = 0 and replies = 1 and elected = 2 and done_ = 3 in
  let send_probes (api : msg Network.api) =
    let m = Probe { id; phase = c.(phase); hops = 1 } in
    api.send 0 m;
    api.send 1 m
  in
  let start api = send_probes api in
  let handle (api : msg Network.api) from m =
    let back = from and onward = 1 - from in
    match m with
    | Probe p ->
        if p.id > id then begin
          if p.hops < 1 lsl p.phase then
            api.send onward (Probe { p with hops = p.hops + 1 })
          else api.send back (Reply { id = p.id; phase = p.phase })
        end
        else if p.id = id && c.(elected) = 0 then begin
          (* Own probe went all the way around: elected. *)
          c.(elected) <- 1;
          api.set_output Output.leader;
          api.send 1 (Announce id)
        end
        (* p.id < id, or duplicate round-trip of our own probe: swallow. *)
    | Reply r ->
        if r.id <> id then api.send onward (Reply r)
        else if r.phase = c.(phase) then begin
          c.(replies) <- c.(replies) + 1;
          if c.(replies) = 2 then begin
            c.(phase) <- c.(phase) + 1;
            c.(replies) <- 0;
            send_probes api
          end
        end
    | Announce e ->
        c.(done_) <- 1;
        if e = id then api.terminate ()
        else begin
          api.set_output Output.non_leader;
          api.send 1 (Announce e);
          api.terminate ()
        end
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && c.(done_) = 0 do
      match api.recv 0 with
      | Some m -> handle api 0 m
      | None -> (
          match api.recv 1 with
          | Some m -> handle api 1 m
          | None -> continue := false)
    done
  in
  {
    Network.start;
    wake;
    state = Regs { names = [| "phase"; "replies" |]; cells = c };
  }

let message_bound ~n =
  let rec ceil_log2 acc v = if 1 lsl acc >= v then acc else ceil_log2 (acc + 1) v in
  (8 * n * (ceil_log2 0 n + 1)) + (2 * n)
