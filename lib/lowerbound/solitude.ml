open Colring_engine

type pattern = string

let max_deliveries = 1_000_000

let extract factory ~id =
  let topo = Topology.oriented 1 in
  let sink = Sink.memory () in
  let net = Network.create ~sink topo (fun _ -> factory ~id) in
  let result = Network.run ~max_deliveries net Scheduler.fifo in
  if result.exhausted then
    failwith
      (Printf.sprintf "Solitude.extract: id %d did not quiesce within %d"
         id max_deliveries);
  match Sink.trace sink with
  | None -> assert false
  | Some tr ->
      (* On the oriented one-node ring, clockwise pulses arrive on the
         node's P0, counterclockwise ones on P1. *)
      let ports = Trace.consumed_ports tr ~node:0 in
      let buf = Bytes.create (List.length ports) in
      List.iteri
        (fun i p ->
          Bytes.set buf i (if Port.equal p Port.P1 then '1' else '0'))
        ports;
      Bytes.to_string buf

let extract_range factory ~lo ~hi =
  List.init (hi - lo + 1) (fun i ->
      let id = lo + i in
      (id, extract factory ~id))

let length = String.length

let algo2_expected ~id = String.make id '0' ^ String.make (id + 1) '1'
