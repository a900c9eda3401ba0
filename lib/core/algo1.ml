open Colring_engine

(* On an oriented ring, clockwise pulses are sent from Port_1 and
   received on Port_0 (the paper's convention, Section 2). *)
let cw_out = Port.P1
let cw_in = Port.P0

type state = {
  id : int;
  mutable rho_cw : int;
  mutable sigma_cw : int;
  mutable out_role : Output.role; (* role last published via set_output *)
}

let[@inline] send_cw (api : _ Network.api) st =
  api.send cw_out ();
  st.sigma_cw <- st.sigma_cw + 1

(* [api.mailbox.(0)] ([cw_in]) shows an empty port without a call. *)
let[@inline] recv_cw (api : _ Network.api) st =
  api.mailbox.(0) > 0
  && api.recv_pulse cw_in
  && begin
       st.rho_cw <- st.rho_cw + 1;
       true
     end

(* The simulator drops an output equal to the current one, so
   publishing only on a role change leaves every journal unchanged and
   skips the api call on the relay path.  [o] is [role]'s constant
   output. *)
let[@inline] publish (api : _ Network.api) st role o =
  if st.out_role <> role then begin
    st.out_role <- role;
    api.set_output o
  end

(* Relay every clockwise pulse until the mailbox is empty.  A top-level
   tail recursion, so a wake allocates nothing. *)
let rec wake_loop (api : _ Network.api) st =
  if recv_cw api st then begin
    if st.rho_cw = st.id then publish api st Output.Leader Output.leader
    else begin
      (* v acts as a relay unless ρcw = ID_v. *)
      publish api st Output.Non_leader Output.non_leader;
      send_cw api st
    end;
    wake_loop api st
  end

let program ~id =
  if id < 1 then invalid_arg "Algo1.program: id must be positive";
  let st = { id; rho_cw = 0; sigma_cw = 0; out_role = Output.Undecided } in
  let start api = send_cw api st in
  let wake api = wake_loop api st in
  let inspect () =
    [ ("id", st.id); ("rho_cw", st.rho_cw); ("sigma_cw", st.sigma_cw) ]
  in
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            [| st.rho_cw; st.sigma_cw; Output.role_code st.out_role |]);
        load =
          (fun a ->
            st.rho_cw <- a.(0);
            st.sigma_cw <- a.(1);
            st.out_role <- Output.role_of_code a.(2));
      }
  in
  { Network.start; wake; inspect; snap }

let total_pulses = Formulas.algo1_total
