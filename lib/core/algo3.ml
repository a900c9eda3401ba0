open Colring_engine
module Rng = Colring_stats.Rng

type id_scheme = Doubled | Improved

(* The register file: the named view (the ID, both virtual IDs, then
   received and sent counts per local port, then the resample count),
   then the output last published via set_output as an index into
   [outputs]. *)
let names =
  [| "id"; "id0"; "id1"; "rho0"; "rho1"; "sigma0"; "sigma1"; "resamples" |]

let id = 0
let id0 = 1
let rho0 = 3
let sigma0 = 5
let resamples = 7
let out = 8

(* [Output.empty], then the four outputs [decide] publishes, built once
   so a change of role or clockwise port allocates nothing: leader at
   1 + cw port, non-leader at 3 + cw port. *)
let outputs =
  [|
    Output.empty;
    Output.with_cw_port Port.P0 Output.leader;
    Output.with_cw_port Port.P1 Output.leader;
    Output.with_cw_port Port.P0 Output.non_leader;
    Output.with_cw_port Port.P1 Output.non_leader;
  |]

(* ID^(i) governs forwarding *out of* port i (= absorbing pulses that
   arrived on port 1-i), line 2 of Algorithm 3. *)
let[@inline] virtual_id c i = c.(id0 + i)

(* Write an ID and the virtual IDs it yields. *)
let set_id c scheme v =
  c.(id) <- v;
  let base = match scheme with Doubled -> (2 * v) - 1 | Improved -> v in
  c.(id0) <- base;
  c.(id0 + 1) <- base + 1

let[@inline] send (api : _ Network.api) c i =
  api.send i ();
  c.(sigma0 + i) <- c.(sigma0 + i) + 1

(* [api.mailbox] shows an empty port without a call. *)
let[@inline] recv (api : _ Network.api) c i =
  api.mailbox.(i) > 0
  && api.recv_pulse i
  && begin
       c.(rho0 + i) <- c.(rho0 + i) + 1;
       true
     end

(* Lines 8-16: recompute the (revisable) output from the counters. *)
let decide (api : _ Network.api) c =
  let r0 = c.(rho0) in
  let r1 = c.(rho0 + 1) in
  let id1 = virtual_id c 1 in
  if r0 >= id1 || r1 >= id1 then begin
    (* More arrivals on a port means the larger-ID direction comes in
       there; clockwise pulses arrive at counterclockwise ports. *)
    let o =
      (if r0 = id1 && r1 < id1 then 1 else 3) + if r0 > r1 then 1 else 0
    in
    if o <> c.(out) then begin
      c.(out) <- o;
      api.set_output outputs.(o)
    end
  end

(* Proposition 19: resample upon receipt while min(ρ0,ρ1) > ID.  By the
   time this fires the node has absorbed its one pulse in each
   direction, and the fresh ID stays below both counters, so the node
   remains a pure relay: pulse dynamics are unchanged. *)
let maybe_resample (api : _ Network.api) c =
  let r0 = c.(rho0) in
  let r1 = c.(rho0 + 1) in
  let m = if r0 <= r1 then r0 else r1 in
  if m > c.(id) then begin
    set_id c Improved (Rng.int_incl (api.rng ()) 1 (m - 1));
    c.(resamples) <- c.(resamples) + 1
  end

(* Line 6: pulses received at port 1-i are forwarded at port i unless
   the count matches ID^(i). *)
let[@inline] poll api c ~resample i =
  recv api c (1 - i)
  && begin
       if c.(rho0 + 1 - i) <> virtual_id c i then send api c i;
       if resample then maybe_resample api c;
       true
     end

(* Top-level so a wake allocates nothing.  After a round that consumed
   nothing, [decide] would see the ρ and ID it last saw: it is skipped. *)
let rec wake_loop api c ~resample =
  let progress0 = poll api c ~resample 0 in
  let progress1 = poll api c ~resample 1 in
  if progress0 || progress1 then begin
    decide api c;
    wake_loop api c ~resample
  end

let make ~resample ~scheme ~id:v =
  if v < 1 then invalid_arg "Algo3.program: id must be positive";
  let c = Array.make 9 0 in
  set_id c scheme v;
  let start api =
    for i = 0 to 1 do
      send api c i
    done
  in
  {
    Network.start;
    wake = (fun api -> wake_loop api c ~resample);
    state = Regs { names; cells = c };
  }

let program ~scheme ~id = make ~resample:false ~scheme ~id
let program_resampling ~id = make ~resample:true ~scheme:Improved ~id

let total_pulses ~scheme ~n ~id_max =
  match scheme with
  | Doubled -> Formulas.algo3_doubled_total ~n ~id_max
  | Improved -> Formulas.algo3_improved_total ~n ~id_max
