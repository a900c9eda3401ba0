type _ Effect.t += Recv : int -> unit Effect.t
type _ Effect.t += Recv_any : int Effect.t

let recv p = Effect.perform (Recv p)
let recv_any () = Effect.perform Recv_any

type waiting =
  | Idle
  | On_port of int * (unit, unit) Effect.Deep.continuation
  | On_any of (int, unit) Effect.Deep.continuation
  | Finished

(* The lowest port from [p] up with a pulse waiting, or -1. *)
let rec first_available (api : Network.pulse Network.api) p =
  if Int.equal p api.degree then -1
  else if api.mailbox.(p) > 0 then p
  else first_available api (p + 1)

let make ?(inspect = fun () -> []) body =
  let state = ref Idle in
  let handler (api : Network.pulse Network.api) =
    {
      Effect.Deep.retc = (fun () -> state := Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Recv p ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if api.recv_pulse p then Effect.Deep.continue k ()
                  else state := On_port (p, k))
          | Recv_any ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  match first_available api 0 with
                  | -1 -> state := On_any k
                  | p ->
                      if api.recv_pulse p then Effect.Deep.continue k p
                      else assert false)
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
        match first_available api 0 with
        | -1 -> ()
        | p ->
            if api.recv_pulse p then begin
              state := Idle;
              Effect.Deep.continue k p
            end
            else assert false)
  in
  (* Opaque: the blocked state is a pending effect continuation, which
     cannot be flattened to ints (or resumed twice). *)
  { Network.start; wake; state = Opaque inspect }
