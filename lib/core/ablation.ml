open Colring_engine

let cw_out = 1
let cw_in = 0
let ccw_out = 0
let ccw_in = 1

(* Consume a pulse at [p] if [api.mailbox] shows one waiting. *)
let polled (api : _ Network.api) p =
  api.mailbox.(p) > 0 && api.recv_pulse p

(* A fresh register file: cell 0 holds [id], the rest start at 0. *)
let cells ~id k =
  let c = Array.make k 0 in
  c.(0) <- id;
  c

(* Algorithm 2 minus the lag: both instances start at initialization
   and the CCW block is not gated on rho_cw >= id.  Compare Algo2.
   Cells: the view [id], [rho_cw], [rho_ccw], then the hidden
   term-initiated and finished flags and the role code. *)
let algo2_no_lag ~id =
  if id < 1 then invalid_arg "Ablation.algo2_no_lag: id must be positive";
  let c = cells ~id 6 in
  let rho_cw = 1 and rho_ccw = 2 and term_initiated = 3 and finished = 4 in
  let role = 5 in
  let incr i = c.(i) <- c.(i) + 1 in
  let start (api : _ Network.api) =
    api.send cw_out ();
    api.send ccw_out () (* no lag: CCW launches immediately *)
  in
  let finish (api : _ Network.api) =
    c.(finished) <- 1;
    api.set_output
      (Output.with_role (Output.role_of_code c.(role)) Output.empty);
    api.terminate ()
  in
  let wake (api : _ Network.api) =
    let continue = ref true in
    while !continue && c.(finished) = 0 do
      if c.(term_initiated) = 1 then begin
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
          if c.(rho_cw) = id then c.(role) <- Output.role_code Output.Leader
          else begin
            c.(role) <- Output.role_code Output.Non_leader;
            api.send cw_out ()
          end
        end;
        (* No rho_cw >= id guard here: the broken part. *)
        if polled api ccw_in then begin
          progress := true;
          incr rho_ccw;
          if c.(rho_ccw) <> id then api.send ccw_out ()
        end;
        if c.(term_initiated) = 0 && c.(rho_cw) = id && c.(rho_ccw) = id
        then begin
          api.send ccw_out ();
          c.(term_initiated) <- 1;
          progress := true
        end;
        if c.(rho_ccw) > c.(rho_cw) then finish api
        else if not !progress then continue := false
      end
    done
  in
  let names = [| "id"; "rho_cw"; "rho_ccw" |] in
  { Network.start; wake; state = Regs { names; cells = c } }

(* Algorithm 3 with identical virtual IDs per direction.  Cells: [id],
   then the received counts per local port. *)
let algo3_same_virtual_ids ~id =
  if id < 1 then invalid_arg "Ablation.algo3_same_virtual_ids: id > 0";
  let c = cells ~id 3 in
  let rho i = c.(1 + i) in
  let start (api : _ Network.api) =
    api.send 0 ();
    api.send 1 ()
  in
  let wake (api : _ Network.api) =
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to 1 do
        if polled api (1 - i) then begin
          progress := true;
          c.(2 - i) <- c.(2 - i) + 1;
          if rho (1 - i) <> id then api.send i ()
        end
      done;
      if max (rho 0) (rho 1) >= id then begin
        let role =
          if rho 0 = id && rho 1 < id then Output.Leader else Output.Non_leader
        in
        let cw_port = if rho 0 > rho 1 then Port.P1 else Port.P0 in
        api.set_output
          (Output.with_cw_port cw_port (Output.with_role role Output.empty))
      end
    done
  in
  let names = [| "id"; "rho0"; "rho1" |] in
  { Network.start; wake; state = Regs { names; cells = c } }

(* Algorithm 1 without the absorption case.  Cells: [id], [rho_cw]. *)
let algo1_no_absorption ~id =
  if id < 1 then invalid_arg "Ablation.algo1_no_absorption: id > 0";
  let c = cells ~id 2 in
  let start (api : _ Network.api) = api.send cw_out () in
  let wake (api : _ Network.api) =
    let continue = ref true in
    while !continue do
      if polled api cw_in then begin
        c.(1) <- c.(1) + 1;
        api.set_output (if c.(1) = id then Output.leader else Output.non_leader);
        api.send cw_out () (* always relays: never absorbs *)
      end
      else continue := false
    done
  in
  let names = [| "id"; "rho_cw" |] in
  { Network.start; wake; state = Regs { names; cells = c } }

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
