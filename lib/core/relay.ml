open Colring_engine

(* On an oriented ring, clockwise pulses are sent from Port_1 and
   received on Port_0 (the paper's convention, Section 2). *)
let cw_out = Port.P1
let cw_in = Port.P0

(* The register file, all of it the view: pulses received and whether
   the one forward has been sent (0 or 1). *)
let names = [| "rho"; "forwarded" |]

let program () =
  let c = [| 0; 0 |] in
  let start (api : _ Network.api) = api.send cw_out () in
  let wake (api : _ Network.api) =
    (* Port 0 is [cw_in]; the last, empty poll makes no call. *)
    while api.mailbox.(0) > 0 && api.recv_pulse cw_in do
      c.(0) <- c.(0) + 1;
      if c.(1) = 0 then begin
        c.(1) <- 1;
        api.send cw_out ()
      end
    done
  in
  { Network.start; wake; state = Regs { names; cells = c } }

let total_pulses ~n = 2 * n
let final_rho = 2
