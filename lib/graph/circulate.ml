open Colring_engine
module Algo3 = Colring_core.Algo3

let algo3_deg2 ~scheme ~id =
  if id < 1 then invalid_arg "Circulate.algo3_deg2: id must be positive";
  let rho = [| 0; 0 |] in
  let sigma = [| 0; 0 |] in
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
      sigma.(i) <- sigma.(i) + 1
    done
  in
  let decide (api : _ Gnetwork.api) =
    if max rho.(0) rho.(1) >= virtual_id 1 then begin
      let role =
        if rho.(0) = virtual_id 1 && rho.(1) < virtual_id 1 then Output.Leader
        else Output.Non_leader
      in
      let cw_port = if rho.(0) > rho.(1) then Port.P1 else Port.P0 in
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
            rho.(1 - i) <- rho.(1 - i) + 1;
            if rho.(1 - i) <> virtual_id i then begin
              api.send i ();
              sigma.(i) <- sigma.(i) + 1
            end
        | None -> ()
      done;
      decide api
    done
  in
  let inspect () =
    [
      ("id", id);
      ("rho0", rho.(0));
      ("rho1", rho.(1));
      ("sigma0", sigma.(0));
      ("sigma1", sigma.(1));
    ]
  in
  let snap =
    Some
      {
        Network.save =
          (fun () -> [| rho.(0); rho.(1); sigma.(0); sigma.(1) |]);
        load =
          (fun a ->
            rho.(0) <- a.(0);
            rho.(1) <- a.(1);
            sigma.(0) <- a.(2);
            sigma.(1) <- a.(3));
      }
  in
  { Gnetwork.start; wake; inspect; snap }

let rotor ~id =
  if id < 1 then invalid_arg "Circulate.rotor: id must be positive";
  let rho = ref 0 and sigma = ref 0 and absorbed = ref 0 in
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
            if !rho mod id = 0 then begin
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
  let inspect () =
    [ ("id", id); ("rho", !rho); ("sigma", !sigma); ("absorbed", !absorbed) ]
  in
  let snap =
    Some
      {
        Network.save = (fun () -> [| !rho; !sigma; !absorbed |]);
        load =
          (fun a ->
            rho := a.(0);
            sigma := a.(1);
            absorbed := a.(2));
      }
  in
  { Gnetwork.start; wake; inspect; snap }
