open Colring_engine

(* On an oriented ring, clockwise pulses are sent from Port_1 and
   received on Port_0 (the paper's convention, Section 2). *)
let cw_out = Port.P1
let cw_in = Port.P0

type state = { mutable rho : int; mutable forwarded : bool }

let program () =
  let st = { rho = 0; forwarded = false } in
  let start (api : _ Network.api) = api.send cw_out () in
  let wake (api : _ Network.api) =
    (* Port 0 is [cw_in]; the last, empty poll makes no call. *)
    while api.mailbox.(0) > 0 && api.recv_pulse cw_in do
      st.rho <- st.rho + 1;
      if not st.forwarded then begin
        st.forwarded <- true;
        api.send cw_out ()
      end
    done
  in
  let inspect () =
    [ ("rho", st.rho); ("forwarded", if st.forwarded then 1 else 0) ]
  in
  let snap =
    Some
      {
        Network.save =
          (fun () -> [| st.rho; (if st.forwarded then 1 else 0) |]);
        load =
          (fun a ->
            st.rho <- a.(0);
            st.forwarded <- a.(1) <> 0);
      }
  in
  { Network.start; wake; inspect; snap }

let total_pulses ~n = 2 * n
let final_rho = 2
