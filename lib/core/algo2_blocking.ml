open Colring_engine

let cw_out = 1
let cw_in = 0
let ccw_out = 0
let ccw_in = 1

type state = {
  id : int;
  (* Pulses consumed from the engine mailbox but not yet "received" in
     the paper's sense — the paper's incoming queues. *)
  mutable queue_cw : int;
  mutable queue_ccw : int;
  mutable rho_cw : int;
  mutable sigma_cw : int;
  mutable rho_ccw : int;
  mutable sigma_ccw : int;
  mutable role : Output.role;
  mutable term_initiated : bool;
}

let drain (api : _ Network.api) st =
  let rec go port =
    match api.recv port with
    | Some () ->
        if port = cw_in then st.queue_cw <- st.queue_cw + 1
        else st.queue_ccw <- st.queue_ccw + 1;
        go port
    | None -> ()
  in
  go cw_in;
  go ccw_in

(* Block until at least one more pulse is queued, then stage it. *)
let await_more (api : _ Network.api) st =
  let port = Blocking.recv_any () in
  if port = cw_in then st.queue_cw <- st.queue_cw + 1
  else st.queue_ccw <- st.queue_ccw + 1;
  drain api st

let recv_cw st =
  if st.queue_cw > 0 then begin
    st.queue_cw <- st.queue_cw - 1;
    st.rho_cw <- st.rho_cw + 1;
    true
  end
  else false

let recv_ccw st =
  if st.queue_ccw > 0 then begin
    st.queue_ccw <- st.queue_ccw - 1;
    st.rho_ccw <- st.rho_ccw + 1;
    true
  end
  else false

let send_cw (api : _ Network.api) st =
  api.send cw_out ();
  st.sigma_cw <- st.sigma_cw + 1

let send_ccw (api : _ Network.api) st =
  api.send ccw_out ();
  st.sigma_ccw <- st.sigma_ccw + 1

let body st (api : _ Network.api) =
  (* Line 1 *)
  send_cw api st;
  let continue = ref true in
  while !continue do
    drain api st;
    let progress = ref false in
    (* Lines 3-8 *)
    if recv_cw st then begin
      progress := true;
      if st.rho_cw = st.id then st.role <- Output.Leader
      else begin
        st.role <- Output.Non_leader;
        send_cw api st
      end;
      api.set_output (Output.with_role st.role Output.empty)
    end;
    (* Lines 9-13 *)
    if st.rho_cw >= st.id then begin
      if st.sigma_ccw = 0 then begin
        send_ccw api st;
        progress := true
      end;
      if recv_ccw st then begin
        progress := true;
        if st.rho_ccw <> st.id then send_ccw api st
      end
    end;
    (* Lines 14-17: the unique election-complete event, then the
       literal busy-wait for the returning termination pulse. *)
    if (not st.term_initiated) && st.rho_cw = st.id && st.rho_ccw = st.id
    then begin
      send_ccw api st;
      st.term_initiated <- true;
      while not (recv_ccw st) do
        await_more api st
      done;
      progress := true
    end;
    (* Line 18 *)
    if st.rho_ccw > st.rho_cw then continue := false
    else if not !progress then await_more api st
  done;
  (* Line 19 *)
  api.set_output (Output.with_role st.role Output.empty);
  api.terminate ()

let program ~id =
  if id < 1 then invalid_arg "Algo2_blocking.program: id must be positive";
  let st =
    {
      id;
      queue_cw = 0;
      queue_ccw = 0;
      rho_cw = 0;
      sigma_cw = 0;
      rho_ccw = 0;
      sigma_ccw = 0;
      role = Output.Undecided;
      term_initiated = false;
    }
  in
  let inspect () =
    [
      ("id", st.id);
      ("rho_cw", st.rho_cw);
      ("sigma_cw", st.sigma_cw);
      ("rho_ccw", st.rho_ccw);
      ("sigma_ccw", st.sigma_ccw);
      ("term_initiated", if st.term_initiated then 1 else 0);
    ]
  in
  Blocking.make ~inspect (body st)
