open Colring_engine

type report = {
  k : int;
  n : int;
  ids : int array;
  shared_prefix : int;
  formula_prefix : int;
  sends : int;
  bound : int;
  per_node_agreement : int array;
  mimicry : bool;
}

let observed_sequence trace ~node =
  let ports = Trace.consumed_ports trace ~node in
  let buf = Bytes.create (List.length ports) in
  List.iteri
    (fun i p -> Bytes.set buf i (if Port.equal p Port.P1 then '1' else '0'))
    ports;
  Bytes.to_string buf

let replay ~k ~n factory =
  if n < 1 || k < n then invalid_arg "Adversary.replay: need k >= n >= 1";
  let tagged = Solitude.extract_range factory ~lo:1 ~hi:k in
  let chosen, shared_prefix = Analysis.best_group tagged ~group:n in
  let ids = Array.of_list chosen in
  let topo = Topology.oriented n in
  let sink = Sink.memory () in
  let net = Network.create ~sink topo (fun v -> factory ~id:ids.(v)) in
  let result = Network.run net Scheduler.global_fifo in
  let trace = Option.get (Sink.trace sink) in
  let pattern_of = Hashtbl.create 16 in
  List.iter (fun (id, p) -> Hashtbl.replace pattern_of id p) tagged;
  let per_node_agreement =
    Array.init n (fun v ->
        let solitude = Hashtbl.find pattern_of ids.(v) in
        Analysis.common_prefix_length solitude
          (observed_sequence trace ~node:v))
  in
  {
    k;
    n;
    ids;
    shared_prefix;
    formula_prefix = (if n <= k then Colring_core.Formulas.lower_bound ~n ~k / n else 0);
    sends = result.sends;
    bound = n * shared_prefix;
    per_node_agreement;
    mimicry = Array.for_all (fun a -> a >= shared_prefix) per_node_agreement;
  }
