open Colring_engine

type msg = Value of int | Announce of int

let cw_out = Port.P1
let cw_in = Port.P0

(* The register file: the view [tid] and [phases], then the mode and,
   in [wait_second], the first received value. *)
let names = [| "tid"; "phases" |]
let tid = 0
let phases = 1
let mode = 2
let first = 3

(* Modes: active with a phase started, awaiting the first value;
   active holding it in [first]; relay; announcer; done. *)
let wait_first = 0
let wait_second = 1
let relay = 2
let announcer = 3
let done_ = 4

let program ~id =
  if id < 1 then invalid_arg "Peterson.program: id must be positive";
  let c = [| id; 0; wait_first; 0 |] in
  let start (api : msg Network.api) = api.send cw_out (Value c.(tid)) in
  let handle (api : msg Network.api) m =
    let md = c.(mode) in
    match m with
    | Value v when md = wait_first ->
        if v = c.(tid) then begin
          (* Sole survivor: own value completed the circle. *)
          c.(mode) <- announcer;
          api.send cw_out (Announce c.(tid))
        end
        else begin
          api.send cw_out (Value v);
          c.(mode) <- wait_second;
          c.(first) <- v
        end
    | Value v2 when md = wait_second ->
        let v1 = c.(first) in
        c.(first) <- 0;
        if v1 > c.(tid) && v1 > v2 then begin
          c.(tid) <- v1;
          c.(phases) <- c.(phases) + 1;
          c.(mode) <- wait_first;
          api.send cw_out (Value c.(tid))
        end
        else c.(mode) <- relay
    | Value v when md = relay -> api.send cw_out (Value v)
    | Value _ -> () (* announcer or done: stray of a finished phase *)
    | Announce e when md = announcer ->
        (* Announcement returned; the announcer itself is the leader
           only if the surviving value is its own original ID. *)
        api.set_output (if e = id then Output.leader else Output.non_leader);
        c.(mode) <- done_;
        api.terminate ()
    | Announce e when md <> done_ ->
        (* The node whose original ID equals the surviving value is the
           elected leader. *)
        api.set_output (if e = id then Output.leader else Output.non_leader);
        c.(mode) <- done_;
        api.send cw_out (Announce e);
        api.terminate ()
    | Announce _ -> ()
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && c.(mode) <> done_ do
      match api.recv cw_in with
      | Some m -> handle api m
      | None -> continue := false
    done
  in
  { Network.start; wake; state = Regs { names; cells = c } }
