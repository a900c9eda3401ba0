open Colring_engine

let cw_out = Port.P1
let cw_in = Port.P0
let ccw_out = Port.P0
let ccw_in = Port.P1

(* Consume a pulse at [p] if [api.mailbox] shows one waiting. *)
let polled (api : _ Network.api) p =
  api.mailbox.(Port.index p) > 0 && api.recv_pulse p

(* Algorithm 2 minus the lag: both instances start at initialization
   and the CCW block is not gated on rho_cw >= id.  Compare Algo2. *)
let algo2_no_lag ~id =
  if id < 1 then invalid_arg "Ablation.algo2_no_lag: id must be positive";
  let rho_cw = ref 0 and rho_ccw = ref 0 in
  let term_initiated = ref false in
  let finished = ref false in
  let role = ref Output.Undecided in
  let start (api : _ Network.api) =
    api.send cw_out ();
    api.send ccw_out () (* no lag: CCW launches immediately *)
  in
  let finish (api : _ Network.api) =
    finished := true;
    api.set_output (Output.with_role !role Output.empty);
    api.terminate ()
  in
  let wake (api : _ Network.api) =
    let continue = ref true in
    while !continue && not !finished do
      if !term_initiated then begin
        if polled api ccw_in then begin
          incr rho_ccw;
          finish api
        end
        else continue := false
      end
      else begin
        let progress = ref false in
        if polled api cw_in then begin
          progress := true;
          incr rho_cw;
          if !rho_cw = id then role := Output.Leader
          else begin
            role := Output.Non_leader;
            api.send cw_out ()
          end
        end;
        (* No rho_cw >= id guard here: the broken part. *)
        if polled api ccw_in then begin
          progress := true;
          incr rho_ccw;
          if !rho_ccw <> id then api.send ccw_out ()
        end;
        if (not !term_initiated) && !rho_cw = id && !rho_ccw = id then begin
          api.send ccw_out ();
          term_initiated := true;
          progress := true
        end;
        if !rho_ccw > !rho_cw then finish api
        else if not !progress then continue := false
      end
    done
  in
  let inspect () =
    [ ("id", id); ("rho_cw", !rho_cw); ("rho_ccw", !rho_ccw) ]
  in
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            [|
              !rho_cw;
              !rho_ccw;
              (if !term_initiated then 1 else 0);
              (if !finished then 1 else 0);
              Output.role_code !role;
            |]);
        load =
          (fun a ->
            rho_cw := a.(0);
            rho_ccw := a.(1);
            term_initiated := a.(2) = 1;
            finished := a.(3) = 1;
            role := Output.role_of_code a.(4));
      }
  in
  { Network.start; wake; inspect; snap }

(* Algorithm 3 with identical virtual IDs per direction. *)
let algo3_same_virtual_ids ~id =
  if id < 1 then invalid_arg "Ablation.algo3_same_virtual_ids: id > 0";
  let rho = [| 0; 0 |] in
  let start (api : _ Network.api) =
    api.send Port.P0 ();
    api.send Port.P1 ()
  in
  let wake (api : _ Network.api) =
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to 1 do
        if polled api (Port.of_index (1 - i)) then begin
          progress := true;
          rho.(1 - i) <- rho.(1 - i) + 1;
          if rho.(1 - i) <> id then api.send (Port.of_index i) ()
        end
      done;
      if max rho.(0) rho.(1) >= id then begin
        let role =
          if rho.(0) = id && rho.(1) < id then Output.Leader
          else Output.Non_leader
        in
        let cw_port = if rho.(0) > rho.(1) then Port.P1 else Port.P0 in
        api.set_output
          (Output.with_cw_port cw_port (Output.with_role role Output.empty))
      end
    done
  in
  let inspect () = [ ("id", id); ("rho0", rho.(0)); ("rho1", rho.(1)) ] in
  let snap =
    Some
      {
        Network.save = (fun () -> [| rho.(0); rho.(1) |]);
        load =
          (fun a ->
            rho.(0) <- a.(0);
            rho.(1) <- a.(1));
      }
  in
  { Network.start; wake; inspect; snap }

(* Algorithm 1 without the absorption case. *)
let algo1_no_absorption ~id =
  if id < 1 then invalid_arg "Ablation.algo1_no_absorption: id > 0";
  let rho = ref 0 in
  let start (api : _ Network.api) = api.send cw_out () in
  let wake (api : _ Network.api) =
    let continue = ref true in
    while !continue do
      if polled api cw_in then begin
        incr rho;
        api.set_output (if !rho = id then Output.leader else Output.non_leader);
        api.send cw_out () (* always relays: never absorbs *)
      end
      else continue := false
    done
  in
  let inspect () = [ ("id", id); ("rho_cw", !rho) ] in
  let snap =
    Some
      {
        Network.save = (fun () -> [| !rho |]);
        load = (fun a -> rho := a.(0));
      }
  in
  { Network.start; wake; inspect; snap }

type failure = {
  wrong_leader : bool;
  not_quiescent : bool;
  post_term_deliveries : int;
  exhausted : bool;
  sends : int;
}

let observe ?(max_deliveries = 200_000) factory ~topo ~ids ~sched =
  let net = Network.create topo (fun v -> factory ~id:ids.(v)) in
  let result = Network.run ~max_deliveries net sched in
  let outputs = Network.outputs net in
  let leaders = ref [] in
  Array.iteri
    (fun v (o : Output.t) ->
      if Output.equal_role o.role Output.Leader then leaders := v :: !leaders)
    outputs;
  let wrong_leader =
    match !leaders with [ v ] -> v <> Ids.argmax ids | [] | _ :: _ -> true
  in
  {
    wrong_leader;
    not_quiescent = not result.quiescent;
    post_term_deliveries =
      Metrics.post_termination_deliveries (Network.metrics net);
    exhausted = result.exhausted;
    sends = result.sends;
  }

let failed f =
  f.wrong_leader || f.not_quiescent || f.post_term_deliveries > 0 || f.exhausted
