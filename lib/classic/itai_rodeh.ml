open Colring_engine
module Rng = Colring_stats.Rng

type msg =
  | Token of { round : int; value : int; hops : int; unique : bool }
  | Announce of { hops : int }

let cw_out = 1
let cw_in = 0

type mode = Active | Passive | Announcer | Done

let program ~n ~range =
  if n < 1 then invalid_arg "Itai_rodeh.program: n must be >= 1";
  if range < 2 then invalid_arg "Itai_rodeh.program: range must be >= 2";
  let mode = ref Active in
  let round = ref 1 in
  let value = ref 0 in
  let new_round (api : msg Network.api) r =
    round := r;
    value := Rng.int_incl (api.rng ()) 1 range;
    api.send cw_out (Token { round = r; value = !value; hops = 1; unique = true })
  in
  let start api = new_round api 1 in
  let handle (api : msg Network.api) m =
    match (m, !mode) with
    | Token t, Active ->
        if t.hops = n then begin
          (* Own token: nobody purged it, so nobody beat it this round. *)
          if t.unique then begin
            mode := Announcer;
            api.set_output Output.leader;
            api.send cw_out (Announce { hops = 1 })
          end
          else new_round api (!round + 1)
        end
        else if
          t.round > !round || (t.round = !round && t.value > !value)
        then begin
          mode := Passive;
          api.send cw_out (Token { t with hops = t.hops + 1 })
        end
        else if t.round = !round && t.value = !value then
          api.send cw_out (Token { t with hops = t.hops + 1; unique = false })
        (* t is older or smaller: purged. *)
    | Token t, Passive ->
        if t.hops < n then
          api.send cw_out (Token { t with hops = t.hops + 1 })
        (* A token reaching hops = n at a passive node belongs to an
           originator that turned passive meanwhile: purge it. *)
    | Token _, (Announcer | Done) -> ()
    | Announce a, (Active | Passive) ->
        api.set_output Output.non_leader;
        if a.hops < n then api.send cw_out (Announce { hops = a.hops + 1 });
        mode := Done;
        api.terminate ()
    | Announce _, Announcer ->
        mode := Done;
        api.terminate ()
    | Announce _, Done -> ()
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && !mode <> Done do
      match api.recv cw_in with
      | Some m -> handle api m
      | None -> continue := false
    done
  in
  let inspect () = [ ("round", !round); ("value", !value) ] in
  (* Opaque: the program draws fresh randomness on every new round,
     and [rng] streams are not rolled back by the undo machinery. *)
  { Network.start; wake; state = Opaque inspect }
