open Colring_engine
module Rng = Colring_stats.Rng

type id_scheme = Doubled | Improved

type state = {
  mutable id : int; (* mutable only for the Proposition 19 variant *)
  scheme : id_scheme;
  rho : int array; (* received per local port *)
  sigma : int array; (* sent per local port *)
  mutable resamples : int;
  (* Output last published via set_output, so [decide] only allocates a
     fresh [Output.t] when the decision actually changed. *)
  mutable out_role : Output.role;
  mutable out_cw_port : Port.t option;
}

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
    let role =
      if r0 = id1 && r1 < id1 then Output.Leader else Output.Non_leader
    in
    (* More arrivals on a port means the larger-ID direction comes in
       there; clockwise pulses arrive at counterclockwise ports. *)
    let cw_port = if r0 > r1 then Port.P1 else Port.P0 in
    let changed =
      match st.out_cw_port with
      | Some p -> st.out_role <> role || p <> cw_port
      | None -> true
    in
    if changed then begin
      st.out_role <- role;
      st.out_cw_port <- Some cw_port;
      api.set_output
        (Output.with_cw_port cw_port (Output.with_role role Output.empty))
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
      out_role = Output.Undecided;
      out_cw_port = None;
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
              Output.role_code st.out_role;
              (match st.out_cw_port with
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
            st.out_role <- Output.role_of_code a.(6);
            st.out_cw_port <-
              (if a.(7) < 0 then None else Some (Port.of_index a.(7))));
      }
  in
  { Network.start; wake; inspect; snap }

let program ~scheme ~id = make ~resample:false ~scheme ~id
let program_resampling ~id = make ~resample:true ~scheme:Improved ~id

let total_pulses ~scheme ~n ~id_max =
  match scheme with
  | Doubled -> Formulas.algo3_doubled_total ~n ~id_max
  | Improved -> Formulas.algo3_improved_total ~n ~id_max
