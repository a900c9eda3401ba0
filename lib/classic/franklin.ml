open Colring_engine

type msg = Value of int | Announce of int

(* The register file: the view [rounds], then the mode, then one
   round buffer per incoming port, each a length and two slots (FIFO
   order = round order; only used while active).

   Two slots suffice.  An active node in round r has consumed every
   earlier value, so its buffer on one side holds rounds >= r.  A
   round r+2 value from that side was sent by a node that finished
   round r+1.  Between this node and its nearest active neighbour u
   on that side there are only relays, so the sender is u, or lies
   beyond u and reaches this node only once u has turned relay.
   Both u finishing round r+1 and a node beyond u finishing round
   r+1 with u already a relay need this node's round r+1 value,
   which it sends only on leaving round r.  So a side holds at most
   rounds r and r+1; a third value fails loudly.  The exhaustive
   check -n 5 golden (test/golden/check-n5-franklin.txt) reaches the
   bound. *)
let rounds = 0
let mode = 1
let[@inline] buffer p = 2 + (3 * Port.index p)

let active = 0
let relay = 1
let announcer = 2
let done_ = 3

let push c p v =
  let b = buffer p in
  let len = c.(b) in
  if len = 2 then failwith "Franklin: a third buffered round value";
  c.(b + 1 + len) <- v;
  c.(b) <- len + 1

let take c p =
  let b = buffer p in
  let v = c.(b + 1) in
  c.(b + 1) <- c.(b + 2);
  c.(b + 2) <- 0;
  c.(b) <- c.(b) - 1;
  v

let program ~id =
  if id < 1 then invalid_arg "Franklin.program: id must be positive";
  let c = [| 0; active; 0; 0; 0; 0; 0; 0 |] in
  let send_both (api : msg Network.api) =
    api.send Port.P0 (Value id);
    api.send Port.P1 (Value id)
  in
  let drain_buffers (api : msg Network.api) =
    (* On turning relay, everything buffered was in transit to a
       further active node: forward it in its direction of travel. *)
    while c.(buffer Port.P0) > 0 do
      api.send Port.P1 (Value (take c Port.P0))
    done;
    while c.(buffer Port.P1) > 0 do
      api.send Port.P0 (Value (take c Port.P1))
    done
  in
  let process_round (api : msg Network.api) =
    if c.(mode) = active && c.(buffer Port.P0) > 0 && c.(buffer Port.P1) > 0
    then begin
      let a = take c Port.P0 in
      let b = take c Port.P1 in
      if a = id || b = id then begin
        (* Own ID came back around: sole survivor. *)
        c.(mode) <- announcer;
        api.set_output Output.leader;
        api.send Port.P1 (Announce id);
        drain_buffers api
      end
      else if max a b < id then begin
        c.(rounds) <- c.(rounds) + 1;
        send_both api
      end
      else begin
        c.(mode) <- relay;
        drain_buffers api
      end
    end
  in
  let handle (api : msg Network.api) from m =
    let md = c.(mode) in
    match m with
    | Value v when md = active ->
        push c from v;
        process_round api
    | Value v when md = relay -> api.send (Port.opposite from) (Value v)
    | Value _ -> () (* announcer or done: stragglers of decided rounds *)
    | Announce e when md = active || md = relay ->
        api.set_output (if e = id then Output.leader else Output.non_leader);
        c.(mode) <- done_;
        api.send Port.P1 (Announce e);
        api.terminate ()
    | Announce _ when md = announcer ->
        c.(mode) <- done_;
        api.terminate ()
    | Announce _ -> ()
  in
  let wake (api : msg Network.api) =
    let continue = ref true in
    while !continue && c.(mode) <> done_ do
      match api.recv Port.P0 with
      | Some m -> handle api Port.P0 m
      | None -> (
          match api.recv Port.P1 with
          | Some m -> handle api Port.P1 m
          | None -> continue := false)
    done
  in
  {
    Network.start = send_both;
    wake;
    state = Regs { names = [| "rounds" |]; cells = c };
  }
