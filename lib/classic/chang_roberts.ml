open Colring_engine

type msg = Candidate of int | Announce of int

let cw_out = Port.P1
let cw_in = Port.P0

let program ~id =
  if id < 1 then invalid_arg "Chang_roberts.program: id must be positive";
  (* One hidden cell and no view: the done flag. *)
  let c = [| 0 |] in
  let start (api : msg Network.api) = api.send cw_out (Candidate id) in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && c.(0) = 0 do
      match api.recv cw_in with
      | None -> continue := false
      | Some (Candidate c) ->
          if c > id then api.send cw_out (Candidate c)
          else if c = id then begin
            (* Own ID survived the full circle: elected. *)
            api.set_output Output.leader;
            api.send cw_out (Announce id)
          end
          (* c < id: swallowed. *)
      | Some (Announce e) ->
          c.(0) <- 1;
          if e = id then api.terminate () (* announcement returned *)
          else begin
            api.set_output Output.non_leader;
            api.send cw_out (Announce e);
            api.terminate ()
          end
    done
  in
  { Network.start; wake; state = Regs { names = [||]; cells = c } }

let worst_case_messages ~n = (n * (n + 1) / 2) + n
