open Colring_engine

type msg = Id of int

let cw_out = Port.P1
let cw_in = Port.P0

let program ~id =
  if id < 1 then invalid_arg "Lelann.program: id must be positive";
  (* The register file, all of it the view: the largest ID seen. *)
  let c = [| id |] in
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
              (if c.(0) = id then Output.leader else Output.non_leader);
            api.terminate ()
          end
          else begin
            if j > c.(0) then c.(0) <- j;
            api.send cw_out (Id j)
          end
    done
  in
  { Network.start; wake; state = Regs { names = [| "max_seen" |]; cells = c } }

let messages ~n = n * n
