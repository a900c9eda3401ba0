open Colring_engine

type msg = Value of int | Announce of int

type mode = Active | Relay | Announcer | Done

let program ~id =
  if id < 1 then invalid_arg "Franklin.program: id must be positive";
  let mode = ref Active in
  let rounds = ref 0 in
  (* Buffered round values per incoming direction (FIFO order = round
     order); only used while active. *)
  let from_p0 = Queue.create () and from_p1 = Queue.create () in
  let send_both (api : msg Network.api) =
    api.send Port.P0 (Value id);
    api.send Port.P1 (Value id)
  in
  let drain_buffers (api : msg Network.api) =
    (* On turning relay, everything buffered was in transit to a
       further active node: forward it in its direction of travel. *)
    Queue.iter (fun v -> api.send Port.P1 (Value v)) from_p0;
    Queue.iter (fun v -> api.send Port.P0 (Value v)) from_p1;
    Queue.clear from_p0;
    Queue.clear from_p1
  in
  let process_round (api : msg Network.api) =
    if
      !mode = Active
      && (not (Queue.is_empty from_p0))
      && not (Queue.is_empty from_p1)
    then begin
      let a = Queue.take from_p0 and b = Queue.take from_p1 in
      if a = id || b = id then begin
        (* Own ID came back around: sole survivor. *)
        mode := Announcer;
        api.set_output Output.leader;
        api.send Port.P1 (Announce id);
        drain_buffers api
      end
      else if max a b < id then begin
        incr rounds;
        send_both api
      end
      else begin
        mode := Relay;
        drain_buffers api
      end
    end
  in
  let start api =
    send_both api
  in
  let handle (api : msg Network.api) from m =
    match (m, !mode) with
    | Value v, Active ->
        (match from with
        | Port.P0 -> Queue.add v from_p0
        | Port.P1 -> Queue.add v from_p1);
        process_round api
    | Value v, Relay -> api.send (Port.opposite from) (Value v)
    | Value _, (Announcer | Done) -> () (* stragglers of decided rounds *)
    | Announce e, (Active | Relay) ->
        api.set_output (if e = id then Output.leader else Output.non_leader);
        mode := Done;
        api.send Port.P1 (Announce e);
        api.terminate ()
    | Announce _, Announcer ->
        mode := Done;
        api.terminate ()
    | Announce _, Done -> ()
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && !mode <> Done do
      match api.recv Port.P0 with
      | Some m -> handle api Port.P0 m
      | None -> (
          match api.recv Port.P1 with
          | Some m -> handle api Port.P1 m
          | None -> continue := false)
    done
  in
  let inspect () = [ ("rounds", !rounds) ] in
  (* The two round buffers are length-prefixed in the flat encoding. *)
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            let mode_code =
              match !mode with
              | Active -> 0
              | Relay -> 1
              | Announcer -> 2
              | Done -> 3
            in
            let a =
              Array.make (4 + Queue.length from_p0 + Queue.length from_p1) 0
            in
            a.(0) <- mode_code;
            a.(1) <- !rounds;
            a.(2) <- Queue.length from_p0;
            a.(3) <- Queue.length from_p1;
            let i = ref 4 in
            Queue.iter
              (fun v ->
                a.(!i) <- v;
                incr i)
              from_p0;
            Queue.iter
              (fun v ->
                a.(!i) <- v;
                incr i)
              from_p1;
            a);
        load =
          (fun a ->
            (mode :=
               match a.(0) with
               | 0 -> Active
               | 1 -> Relay
               | 2 -> Announcer
               | _ -> Done);
            rounds := a.(1);
            Queue.clear from_p0;
            Queue.clear from_p1;
            for i = 0 to a.(2) - 1 do
              Queue.add a.(4 + i) from_p0
            done;
            for i = 0 to a.(3) - 1 do
              Queue.add a.(4 + a.(2) + i) from_p1
            done);
      }
  in
  { Network.start; wake; inspect; snap }
