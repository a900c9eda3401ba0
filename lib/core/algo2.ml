open Colring_engine

(* Clockwise pulses leave via Port_1 and arrive on Port_0;
   counterclockwise pulses leave via Port_0 and arrive on Port_1. *)
let cw_out = Port.P1
let cw_in = Port.P0
let ccw_out = Port.P0
let ccw_in = Port.P1

type state = {
  id : int;
  mutable rho_cw : int;
  mutable sigma_cw : int;
  mutable rho_ccw : int;
  mutable sigma_ccw : int;
  mutable role : Output.role;
  mutable out_role : Output.role; (* role last published via set_output *)
  mutable term_initiated : bool;
  mutable finished : bool;
}

let[@inline] send_cw (api : _ Network.api) st =
  api.send cw_out ();
  st.sigma_cw <- st.sigma_cw + 1

let[@inline] send_ccw (api : _ Network.api) st =
  api.send ccw_out ();
  st.sigma_ccw <- st.sigma_ccw + 1

(* [api.mailbox] (0 is [cw_in]) shows an empty port without a call. *)
let[@inline] recv_cw (api : _ Network.api) st =
  api.mailbox.(0) > 0
  && api.recv_pulse cw_in
  && begin
       st.rho_cw <- st.rho_cw + 1;
       true
     end

let[@inline] recv_ccw (api : _ Network.api) st =
  api.mailbox.(1) > 0
  && api.recv_pulse ccw_in
  && begin
       st.rho_ccw <- st.rho_ccw + 1;
       true
     end

(* The simulator deduplicates equal outputs, so publishing only on a
   role change is observationally identical to republishing after every
   pulse — it just skips allocating the [Output.t]. *)
let[@inline] publish_role (api : _ Network.api) st =
  if st.role <> st.out_role then begin
    st.out_role <- st.role;
    api.set_output (Output.with_role st.role Output.empty)
  end

let finish (api : _ Network.api) st =
  st.finished <- true;
  publish_role api st;
  api.terminate ()

(* One call re-runs the repeat-loop body (lines 3-18) to a fixpoint,
   mirroring the paper's continuously polling loop.  A top-level tail
   recursion over immediate booleans, so a wake allocates nothing. *)
let rec wake_loop (api : _ Network.api) st =
  if st.finished then ()
  else if st.term_initiated then begin
    (* Line 16: busy-wait for the returning termination pulse; it is
       consumed here (not by line 11) and hence never forwarded. *)
    if recv_ccw api st then finish api st
  end
  else begin
    (* Lines 3-8: Algorithm 1 over the CW channel. *)
    let progress_cw = recv_cw api st in
    if progress_cw then begin
      if st.rho_cw = st.id then st.role <- Output.Leader
      else begin
        st.role <- Output.Non_leader;
        send_cw api st
      end;
      publish_role api st
    end;
    (* Lines 9-13: Algorithm 1 over the CCW channel, lagging. *)
    let progress_ccw =
      st.rho_cw >= st.id
      && begin
           let initiated =
             st.sigma_ccw = 0
             && begin
                  send_ccw api st;
                  true
                end
           in
           let received =
             recv_ccw api st
             && begin
                  if st.rho_ccw <> st.id then send_ccw api st;
                  true
                end
           in
           initiated || received
         end
    in
    (* Lines 14-15: the election-complete event, unique to the
       node of maximal ID. *)
    let progress_term =
      (not st.term_initiated)
      && st.rho_cw = st.id
      && st.rho_ccw = st.id
      && begin
           send_ccw api st;
           st.term_initiated <- true;
           true
         end
    in
    (* Line 18: the exit condition. *)
    if st.rho_ccw > st.rho_cw then finish api st
    else if progress_cw || progress_ccw || progress_term then wake_loop api st
  end

let program ~id =
  if id < 1 then invalid_arg "Algo2.program: id must be positive";
  let st =
    {
      id;
      rho_cw = 0;
      sigma_cw = 0;
      rho_ccw = 0;
      sigma_ccw = 0;
      role = Output.Undecided;
      out_role = Output.Undecided;
      term_initiated = false;
      finished = false;
    }
  in
  let start api = send_cw api st in
  let wake api = wake_loop api st in
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
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            [|
              st.rho_cw;
              st.sigma_cw;
              st.rho_ccw;
              st.sigma_ccw;
              Output.role_code st.role;
              Output.role_code st.out_role;
              (if st.term_initiated then 1 else 0);
              (if st.finished then 1 else 0);
            |]);
        load =
          (fun a ->
            st.rho_cw <- a.(0);
            st.sigma_cw <- a.(1);
            st.rho_ccw <- a.(2);
            st.sigma_ccw <- a.(3);
            st.role <- Output.role_of_code a.(4);
            st.out_role <- Output.role_of_code a.(5);
            st.term_initiated <- a.(6) = 1;
            st.finished <- a.(7) = 1);
      }
  in
  { Network.start; wake; inspect; snap }

let total_pulses = Formulas.algo2_total
