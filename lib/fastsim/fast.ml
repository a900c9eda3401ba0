open Colring_engine
module Algo3_def = Colring_core.Algo3
module Ids = Colring_core.Ids
module Election = Colring_core.Election

type algo1_report = {
  total : int;
  receives : int array;
  leaders : int list;
  last_absorber_is_max : bool;
}

let algo1 ~ids =
  let r = Driver.run ~ids in
  let id_max = Ids.id_max ids in
  let leaders = ref [] in
  for v = Array.length ids - 1 downto 0 do
    if ids.(v) = id_max then leaders := v :: !leaders
  done;
  let leaders = !leaders in
  let last_absorber_is_max =
    match List.rev r.Driver.absorb_order with
    | last :: _ -> ids.(last) = id_max
    | [] -> false
  in
  {
    total = r.Driver.deliveries;
    receives = r.Driver.receives;
    leaders;
    last_absorber_is_max;
  }

(* Relabel node indices so the counterclockwise direction becomes the
   driver's "+1" direction: u(v) = -v mod n. *)
let reversed_ids ids =
  let n = Array.length ids in
  Array.init n (fun u -> ids.((n - u) mod n))

type algo2_report = {
  total : int;
  cw : int;
  ccw : int;
  leader : int;
  termination_order : int list;
}

let algo2 ~ids =
  let n = Array.length ids in
  let sorted = Array.copy ids in
  Array.sort compare sorted;
  for i = 0 to n - 2 do
    if sorted.(i) = sorted.(i + 1) then
      invalid_arg "Fast.algo2: ids must be unique"
  done;
  let cw = (Driver.run ~ids).Driver.deliveries in
  let ccw_instance = (Driver.run ~ids:(reversed_ids ids)).Driver.deliveries in
  let leader = Ids.argmax ids in
  let termination_order =
    List.init n (fun i -> (leader - 1 - i + (2 * n)) mod n)
  in
  {
    total = cw + ccw_instance + n;
    cw;
    ccw = ccw_instance + n;
    leader;
    termination_order;
  }

type algo3_report = {
  total : int;
  cw_instance : int;
  ccw_instance : int;
  leader : int;
  leader_unique : bool;
  orientation_consistent : bool;
  cw_ports : Port.t array;
}

let virtual_id scheme id i =
  match scheme with
  | Algo3_def.Doubled -> (2 * id) - 1 + i
  | Algo3_def.Improved -> id + i

let algo3 ~scheme ~ids ~flips =
  let n = Array.length ids in
  if Array.length flips <> n then invalid_arg "Fast.algo3: |flips| <> n";
  (* The port index a node sends clockwise from (ground truth). *)
  let i_cw v = if flips.(v) then 0 else 1 in
  let cw_ids = Array.init n (fun v -> virtual_id scheme ids.(v) (i_cw v)) in
  let ccw_ids_by_node =
    Array.init n (fun v -> virtual_id scheme ids.(v) (1 - i_cw v))
  in
  let cw_run = Driver.run ~ids:cw_ids in
  let ccw_run = Driver.run ~ids:(reversed_ids ccw_ids_by_node) in
  let max_cw = Ids.id_max cw_ids and max_ccw = Ids.id_max ccw_ids_by_node in
  (* At quiescence node v received max_cw pulses on the port where the
     clockwise direction comes in (opposite its cw-out port) and
     max_ccw on the other; express as (rho0, rho1). *)
  let rho v =
    let port_of_cw_arrivals = 1 - i_cw v in
    if port_of_cw_arrivals = 0 then (max_cw, max_ccw) else (max_ccw, max_cw)
  in
  let outputs =
    Array.init n (fun v ->
        let rho0, rho1 = rho v in
        let vid1 = virtual_id scheme ids.(v) 1 in
        let role =
          if rho0 = vid1 && rho1 < vid1 then Output.Leader
          else Output.Non_leader
        in
        let cw_port = if rho0 > rho1 then Port.P1 else Port.P0 in
        Output.with_cw_port cw_port (Output.with_role role Output.empty))
  in
  let leaders = ref [] in
  for v = n - 1 downto 0 do
    if Output.equal_role outputs.(v).Output.role Output.Leader then
      leaders := v :: !leaders
  done;
  let leaders = !leaders in
  let topo = Topology.non_oriented ~flips in
  {
    total = cw_run.Driver.deliveries + ccw_run.Driver.deliveries;
    cw_instance = cw_run.Driver.deliveries;
    ccw_instance = ccw_run.Driver.deliveries;
    leader = (match leaders with [ v ] -> v | _ -> -1);
    leader_unique = List.length leaders = 1;
    orientation_consistent = Election.orientation_consistent topo outputs;
    cw_ports =
      Array.map
        (fun (o : Output.t) -> Option.get o.cw_port)
        outputs;
  }
