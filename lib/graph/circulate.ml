open Colring_engine
module Algo3 = Colring_core.Algo3

(* Cells: [id], then received and sent counts per port. *)
let algo3_deg2 ~scheme ~id =
  if id < 1 then invalid_arg "Circulate.algo3_deg2: id must be positive";
  let c = [| id; 0; 0; 0; 0 |] in
  let rho i = c.(1 + i) in
  let received i = c.(1 + i) <- c.(1 + i) + 1 in
  let sent i = c.(3 + i) <- c.(3 + i) + 1 in
  let virtual_id i =
    match scheme with
    | Algo3.Doubled -> (2 * id) - 1 + i
    | Algo3.Improved -> id + i
  in
  let start (api : _ Gnetwork.api) =
    if api.degree <> 2 then
      invalid_arg "Circulate.algo3_deg2: needs a 2-regular topology";
    for i = 0 to 1 do
      api.send i ();
      sent i
    done
  in
  let decide (api : _ Gnetwork.api) =
    if max (rho 0) (rho 1) >= virtual_id 1 then begin
      let role =
        if rho 0 = virtual_id 1 && rho 1 < virtual_id 1 then Output.Leader
        else Output.Non_leader
      in
      let cw_port = if rho 0 > rho 1 then Port.P1 else Port.P0 in
      api.set_output
        (Output.with_cw_port cw_port (Output.with_role role Output.empty))
    end
  in
  let wake (api : _ Gnetwork.api) =
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to 1 do
        match if api.mailbox.(1 - i) > 0 then api.recv (1 - i) else None with
        | Some () ->
            progress := true;
            received (1 - i);
            if rho (1 - i) <> virtual_id i then begin
              api.send i ();
              sent i
            end
        | None -> ()
      done;
      decide api
    done
  in
  let names = [| "id"; "rho0"; "rho1"; "sigma0"; "sigma1" |] in
  { Gnetwork.start; wake; state = Regs { names; cells = c } }

(* Cells: [id], [rho], [sigma], [absorbed]. *)
let rotor ~id =
  if id < 1 then invalid_arg "Circulate.rotor: id must be positive";
  let c = [| id; 0; 0; 0 |] in
  let incr i = c.(i) <- c.(i) + 1 in
  let rho = 1 and sigma = 2 and absorbed = 3 in
  let start (api : _ Gnetwork.api) =
    for p = 0 to api.degree - 1 do
      api.send p ();
      incr sigma
    done
  in
  let wake (api : _ Gnetwork.api) =
    let progress = ref true in
    while !progress do
      progress := false;
      for p = 0 to api.degree - 1 do
        match if api.mailbox.(p) > 0 then api.recv p else None with
        | Some () ->
            progress := true;
            incr rho;
            if c.(rho) mod id = 0 then begin
              incr absorbed;
              api.set_output Output.leader
            end
            else begin
              api.set_output Output.non_leader;
              api.send ((p + 1) mod api.degree) ();
              incr sigma
            end
        | None -> ()
      done
    done
  in
  let names = [| "id"; "rho"; "sigma"; "absorbed" |] in
  { Gnetwork.start; wake; state = Regs { names; cells = c } }
