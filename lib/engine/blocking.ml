type _ Effect.t += Recv : Port.t -> unit Effect.t
type _ Effect.t += Recv_any : Port.t Effect.t

let recv p = Effect.perform (Recv p)
let recv_any () = Effect.perform Recv_any

type waiting =
  | Idle
  | On_port of Port.t * (unit, unit) Effect.Deep.continuation
  | On_any of (Port.t, unit) Effect.Deep.continuation
  | Finished

let first_available (api : Network.pulse Network.api) =
  if api.mailbox.(0) > 0 then Some Port.P0
  else if api.mailbox.(1) > 0 then Some Port.P1
  else None

let make ?(inspect = fun () -> []) body =
  let state = ref Idle in
  let handler api =
    {
      Effect.Deep.retc = (fun () -> state := Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Recv p ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if api.Network.recv_pulse p then Effect.Deep.continue k ()
                  else state := On_port (p, k))
          | Recv_any ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  match first_available api with
                  | Some p ->
                      if api.Network.recv_pulse p then Effect.Deep.continue k p
                      else assert false
                  | None -> state := On_any k)
          | _ -> None);
    }
  in
  let start api = Effect.Deep.match_with body api (handler api) in
  let wake (api : Network.pulse Network.api) =
    match !state with
    | Idle | Finished -> ()
    | On_port (p, k) ->
        if api.recv_pulse p then begin
          state := Idle;
          Effect.Deep.continue k ()
        end
    | On_any k -> (
        match first_available api with
        | Some p ->
            if api.recv_pulse p then begin
              state := Idle;
              Effect.Deep.continue k p
            end
            else assert false
        | None -> ())
  in
  (* No codec: the blocked state is a pending effect continuation,
     which cannot be flattened to ints (or resumed twice). *)
  { Network.start; wake; inspect; snap = None }
