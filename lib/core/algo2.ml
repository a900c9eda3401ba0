open Colring_engine

(* Clockwise pulses leave via Port_1 and arrive on Port_0;
   counterclockwise pulses leave via Port_0 and arrive on Port_1. *)
let cw_out = 1
let cw_in = 0
let ccw_out = 0
let ccw_in = 1

(* The register file: the named view, then three hidden cells — the
   current role and the role last published via set_output (as
   [Output.role_code]s) and the finished flag. *)
let names =
  [| "id"; "rho_cw"; "sigma_cw"; "rho_ccw"; "sigma_ccw"; "term_initiated" |]

let id = 0
let rho_cw = 1
let sigma_cw = 2
let rho_ccw = 3
let sigma_ccw = 4
let term_initiated = 5
let role = 6
let out_role = 7
let finished = 8
let leader = Output.role_code Output.Leader
let non_leader = Output.role_code Output.Non_leader

let[@inline] send_cw (api : _ Network.api) c =
  api.send cw_out ();
  c.(sigma_cw) <- c.(sigma_cw) + 1

let[@inline] send_ccw (api : _ Network.api) c =
  api.send ccw_out ();
  c.(sigma_ccw) <- c.(sigma_ccw) + 1

(* [api.mailbox] (0 is [cw_in]) shows an empty port without a call. *)
let[@inline] recv_cw (api : _ Network.api) c =
  api.mailbox.(0) > 0
  && api.recv_pulse cw_in
  && begin
       c.(rho_cw) <- c.(rho_cw) + 1;
       true
     end

let[@inline] recv_ccw (api : _ Network.api) c =
  api.mailbox.(1) > 0
  && api.recv_pulse ccw_in
  && begin
       c.(rho_ccw) <- c.(rho_ccw) + 1;
       true
     end

(* The simulator deduplicates equal outputs, so publishing only on a
   role change is observationally identical to republishing after every
   pulse — it just skips allocating the [Output.t]. *)
let[@inline] publish_role (api : _ Network.api) c =
  if c.(role) <> c.(out_role) then begin
    c.(out_role) <- c.(role);
    api.set_output (Output.with_role (Output.role_of_code c.(role)) Output.empty)
  end

let finish (api : _ Network.api) c =
  c.(finished) <- 1;
  publish_role api c;
  api.terminate ()

(* One call re-runs the repeat-loop body (lines 3-18) to a fixpoint,
   mirroring the paper's continuously polling loop.  A top-level tail
   recursion over immediate booleans, so a wake allocates nothing. *)
let rec wake_loop (api : _ Network.api) c =
  if c.(finished) = 1 then ()
  else if c.(term_initiated) = 1 then begin
    (* Line 16: busy-wait for the returning termination pulse; it is
       consumed here (not by line 11) and hence never forwarded. *)
    if recv_ccw api c then finish api c
  end
  else begin
    (* Lines 3-8: Algorithm 1 over the CW channel. *)
    let progress_cw = recv_cw api c in
    if progress_cw then begin
      if c.(rho_cw) = c.(id) then c.(role) <- leader
      else begin
        c.(role) <- non_leader;
        send_cw api c
      end;
      publish_role api c
    end;
    (* Lines 9-13: Algorithm 1 over the CCW channel, lagging. *)
    let progress_ccw =
      c.(rho_cw) >= c.(id)
      && begin
           let initiated =
             c.(sigma_ccw) = 0
             && begin
                  send_ccw api c;
                  true
                end
           in
           let received =
             recv_ccw api c
             && begin
                  if c.(rho_ccw) <> c.(id) then send_ccw api c;
                  true
                end
           in
           initiated || received
         end
    in
    (* Lines 14-15: the election-complete event, unique to the
       node of maximal ID. *)
    let progress_term =
      c.(term_initiated) = 0
      && c.(rho_cw) = c.(id)
      && c.(rho_ccw) = c.(id)
      && begin
           send_ccw api c;
           c.(term_initiated) <- 1;
           true
         end
    in
    (* Line 18: the exit condition. *)
    if c.(rho_ccw) > c.(rho_cw) then finish api c
    else if progress_cw || progress_ccw || progress_term then wake_loop api c
  end

let program ~id:v =
  if v < 1 then invalid_arg "Algo2.program: id must be positive";
  let c = Array.make 9 0 in
  c.(id) <- v;
  c.(role) <- Output.role_code Output.Undecided;
  c.(out_role) <- Output.role_code Output.Undecided;
  {
    Network.start = (fun api -> send_cw api c);
    wake = (fun api -> wake_loop api c);
    state = Regs { names; cells = c };
  }

let total_pulses = Formulas.algo2_total
