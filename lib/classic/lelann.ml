open Colring_engine

type msg = Id of int

let cw_out = Port.P1
let cw_in = Port.P0

let program ~id =
  if id < 1 then invalid_arg "Lelann.program: id must be positive";
  let max_seen = ref id in
  let start (api : msg Network.api) = api.send cw_out (Id id) in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue do
      match api.recv cw_in with
      | None -> continue := false
      | Some (Id j) ->
          if j = id then begin
            (* All n IDs have passed through by now (FIFO order). *)
            continue := false;
            api.set_output
              (if !max_seen = id then Output.leader else Output.non_leader);
            api.terminate ()
          end
          else begin
            if j > !max_seen then max_seen := j;
            api.send cw_out (Id j)
          end
    done
  in
  let snap =
    Some
      {
        Network.save = (fun () -> [| !max_seen |]);
        load = (fun a -> max_seen := a.(0));
      }
  in
  { Network.start; wake; inspect = (fun () -> [ ("max_seen", !max_seen) ]); snap }

let messages ~n = n * n
