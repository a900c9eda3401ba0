open Colring_engine

(* On an oriented ring, clockwise pulses are sent from Port_1 and
   received on Port_0 (the paper's convention, Section 2). *)
let cw_out = 1
let cw_in = 0

(* The register file: the named view [id], [rho_cw], [sigma_cw], then
   the role last published via set_output, as an [Output.role_code]. *)
let names = [| "id"; "rho_cw"; "sigma_cw" |]
let id = 0
let rho_cw = 1
let sigma_cw = 2
let out_role = 3

let[@inline] send_cw (api : _ Network.api) c =
  api.send cw_out ();
  c.(sigma_cw) <- c.(sigma_cw) + 1

(* [api.mailbox.(0)] ([cw_in]) shows an empty port without a call. *)
let[@inline] recv_cw (api : _ Network.api) c =
  api.mailbox.(0) > 0
  && api.recv_pulse cw_in
  && begin
       c.(rho_cw) <- c.(rho_cw) + 1;
       true
     end

(* The simulator drops an output equal to the current one, so
   publishing only on a role change leaves every journal unchanged and
   skips the api call on the relay path.  [o] is the constant output of
   the role coded [role]. *)
let[@inline] publish (api : _ Network.api) c role o =
  if c.(out_role) <> role then begin
    c.(out_role) <- role;
    api.set_output o
  end

let leader_code = Output.role_code Output.Leader
let non_leader_code = Output.role_code Output.Non_leader

(* Relay every clockwise pulse until the mailbox is empty.  A top-level
   tail recursion, so a wake allocates nothing. *)
let rec wake_loop (api : _ Network.api) c =
  if recv_cw api c then begin
    if c.(rho_cw) = c.(id) then publish api c leader_code Output.leader
    else begin
      (* v acts as a relay unless ρcw = ID_v. *)
      publish api c non_leader_code Output.non_leader;
      send_cw api c
    end;
    wake_loop api c
  end

let program ~id:v =
  if v < 1 then invalid_arg "Algo1.program: id must be positive";
  let c = Array.make 4 0 in
  c.(id) <- v;
  c.(out_role) <- Output.role_code Output.Undecided;
  {
    Network.start = (fun api -> send_cw api c);
    wake = (fun api -> wake_loop api c);
    state = Regs { names; cells = c };
  }

let total_pulses = Formulas.algo1_total
