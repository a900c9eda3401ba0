open Colring_engine
module Rng = Colring_stats.Rng

type id_scheme = Doubled | Improved

type state = {
  mutable id : int; (* mutable only for the Proposition 19 variant *)
  scheme : id_scheme;
  rho : int array; (* received per local port *)
  sigma : int array; (* sent per local port *)
  mutable resamples : int;
  mutable out : Output.t;
      (* Output last published via set_output: [Output.empty], then
         one of the four [decided] outputs. *)
}

(* The four outputs [decide] publishes, built once so a change of
   role or clockwise port allocates nothing; [decided] picks one. *)
let leader_p0 = Output.with_cw_port Port.P0 Output.leader
let leader_p1 = Output.with_cw_port Port.P1 Output.leader
let non_leader_p0 = Output.with_cw_port Port.P0 Output.non_leader
let non_leader_p1 = Output.with_cw_port Port.P1 Output.non_leader

let decided ~leader cw_port =
  match (leader, cw_port) with
  | true, Port.P0 -> leader_p0
  | true, Port.P1 -> leader_p1
  | false, Port.P0 -> non_leader_p0
  | false, Port.P1 -> non_leader_p1

(* ID^(i) governs forwarding *out of* port i (= absorbing pulses that
   arrived on port 1-i), line 2 of Algorithm 3. *)
let[@inline] virtual_id st i =
  match st.scheme with
  | Doubled -> (2 * st.id) - 1 + i
  | Improved -> st.id + i

(* [Port.of_index] without the cross-module call or its range check. *)
let[@inline] port i = if i = 0 then Port.P0 else Port.P1

let[@inline] send (api : _ Network.api) st i =
  api.send (port i) ();
  st.sigma.(i) <- st.sigma.(i) + 1

(* [api.mailbox] shows an empty port without a call. *)
let[@inline] recv (api : _ Network.api) st i =
  api.mailbox.(i) > 0
  && api.recv_pulse (port i)
  && begin
       st.rho.(i) <- st.rho.(i) + 1;
       true
     end

(* Lines 8-16: recompute the (revisable) output from the counters.
   Int comparisons throughout: [Stdlib.max] would be a polymorphic
   call. *)
let decide (api : _ Network.api) st =
  let r0 = st.rho.(0) in
  let r1 = st.rho.(1) in
  let id1 = virtual_id st 1 in
  if r0 >= id1 || r1 >= id1 then begin
    (* More arrivals on a port means the larger-ID direction comes in
       there; clockwise pulses arrive at counterclockwise ports. *)
    let o =
      decided
        ~leader:(r0 = id1 && r1 < id1)
        (if r0 > r1 then Port.P1 else Port.P0)
    in
    if o != st.out then begin
      st.out <- o;
      api.set_output o
    end
  end

(* Proposition 19: resample upon receipt while min(ρ0,ρ1) > ID.  By the
   time this fires the node has absorbed its one pulse in each
   direction, and the fresh ID stays below both counters, so the node
   remains a pure relay: pulse dynamics are unchanged. *)
let maybe_resample (api : _ Network.api) st =
  let r0 = st.rho.(0) in
  let r1 = st.rho.(1) in
  let m = if r0 <= r1 then r0 else r1 in
  if m > st.id then begin
    st.id <- Rng.int_incl (api.rng ()) 1 (m - 1);
    st.resamples <- st.resamples + 1
  end

(* Line 6: pulses received at port 1-i are forwarded at port i unless
   the count matches ID^(i). *)
let[@inline] poll api st ~resample i =
  recv api st (1 - i)
  && begin
       if st.rho.(1 - i) <> virtual_id st i then send api st i;
       if resample then maybe_resample api st;
       true
     end

(* Top-level so a wake allocates nothing.  After a round that consumed
   nothing, [decide] would see the ρ and ID it last saw: it is skipped. *)
let rec wake_loop api st ~resample =
  let progress0 = poll api st ~resample 0 in
  let progress1 = poll api st ~resample 1 in
  if progress0 || progress1 then begin
    decide api st;
    wake_loop api st ~resample
  end

let make ~resample ~scheme ~id =
  if id < 1 then invalid_arg "Algo3.program: id must be positive";
  let st =
    {
      id;
      scheme;
      rho = [| 0; 0 |];
      sigma = [| 0; 0 |];
      resamples = 0;
      out = Output.empty;
    }
  in
  let start api =
    for i = 0 to 1 do
      send api st i
    done
  in
  let wake api = wake_loop api st ~resample in
  let inspect () =
    [
      ("id", st.id);
      ("id0", virtual_id st 0);
      ("id1", virtual_id st 1);
      ("rho0", st.rho.(0));
      ("rho1", st.rho.(1));
      ("sigma0", st.sigma.(0));
      ("sigma1", st.sigma.(1));
      ("resamples", st.resamples);
    ]
  in
  let snap =
    Some
      {
        Network.save =
          (fun () ->
            [|
              st.id;
              st.rho.(0);
              st.rho.(1);
              st.sigma.(0);
              st.sigma.(1);
              st.resamples;
              Output.role_code st.out.role;
              (match st.out.cw_port with
              | None -> -1
              | Some p -> Port.index p);
            |]);
        load =
          (fun a ->
            st.id <- a.(0);
            st.rho.(0) <- a.(1);
            st.rho.(1) <- a.(2);
            st.sigma.(0) <- a.(3);
            st.sigma.(1) <- a.(4);
            st.resamples <- a.(5);
            st.out <-
              (if a.(7) < 0 then Output.empty
               else
                 decided
                   ~leader:(a.(6) = Output.role_code Output.Leader)
                   (Port.of_index a.(7))));
      }
  in
  { Network.start; wake; inspect; snap }

let program ~scheme ~id = make ~resample:false ~scheme ~id
let program_resampling ~id = make ~resample:true ~scheme:Improved ~id

let total_pulses ~scheme ~n ~id_max =
  match scheme with
  | Doubled -> Formulas.algo3_doubled_total ~n ~id_max
  | Improved -> Formulas.algo3_improved_total ~n ~id_max
