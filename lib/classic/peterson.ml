open Colring_engine

type msg = Value of int | Announce of int

let cw_out = Port.P1
let cw_in = Port.P0

type mode =
  | Wait_first  (** Active, phase started, awaiting the first value. *)
  | Wait_second of int  (** Active, holding the first received value. *)
  | Relay
  | Announcer
  | Done

let program ~id =
  if id < 1 then invalid_arg "Peterson.program: id must be positive";
  let tid = ref id in
  let mode = ref Wait_first in
  let phases = ref 0 in
  let start (api : msg Network.api) = api.send cw_out (Value !tid) in
  let handle (api : msg Network.api) m =
    match (m, !mode) with
    | Value v, Wait_first ->
        if v = !tid then begin
          (* Sole survivor: own value completed the circle. *)
          mode := Announcer;
          api.send cw_out (Announce !tid)
        end
        else begin
          api.send cw_out (Value v);
          mode := Wait_second v
        end
    | Value v2, Wait_second v1 ->
        if v1 > !tid && v1 > v2 then begin
          tid := v1;
          incr phases;
          mode := Wait_first;
          api.send cw_out (Value !tid)
        end
        else mode := Relay
    | Value v, Relay -> api.send cw_out (Value v)
    | Value _, (Announcer | Done) -> () (* stray of a finished phase *)
    | Announce e, Announcer ->
        (* Announcement returned; the announcer itself is the leader
           only if the surviving value is its own original ID. *)
        api.set_output (if e = id then Output.leader else Output.non_leader);
        mode := Done;
        api.terminate ()
    | Announce e, (Wait_first | Wait_second _ | Relay) ->
        (* The node whose original ID equals the surviving value is the
           elected leader. *)
        api.set_output (if e = id then Output.leader else Output.non_leader);
        mode := Done;
        api.send cw_out (Announce e);
        api.terminate ()
    | Announce _, Done -> ()
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && !mode <> Done do
      match api.recv cw_in with
      | Some m -> handle api m
      | None -> continue := false
    done
  in
  let inspect () =
    [ ("tid", !tid); ("phases", !phases) ]
  in
  (* Wait_second's payload rides in the fourth slot. *)
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            let code, payload =
              match !mode with
              | Wait_first -> (0, 0)
              | Relay -> (1, 0)
              | Announcer -> (2, 0)
              | Done -> (3, 0)
              | Wait_second v -> (4, v)
            in
            [| !tid; !phases; code; payload |]);
        load =
          (fun a ->
            tid := a.(0);
            phases := a.(1);
            mode :=
              (match a.(2) with
              | 0 -> Wait_first
              | 1 -> Relay
              | 2 -> Announcer
              | 3 -> Done
              | _ -> Wait_second a.(3)));
      }
  in
  { Network.start; wake; inspect; snap }
