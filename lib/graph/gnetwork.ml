open Colring_engine

(* The graph engine is {!Network}'s core over a [Gtopology.t]: this
   module only derives the core's link tables from the topology and
   re-exports the shared types and functions. *)

type topology = Gtopology.t

type 'm api = 'm Network.Graph.api = {
  node : int;
  degree : int;
  recv : int -> 'm option;
  mailbox : int array;
  send : int -> 'm -> unit;
  set_output : Output.t -> unit;
  terminate : unit -> unit;
  rng : unit -> Colring_stats.Rng.t;
}

type state = Network.state =
  | Regs of { names : string array; cells : int array }
  | Opaque of (unit -> (string * int) list)

type 'api prog = 'api Network.prog = {
  start : 'api -> unit;
  wake : 'api -> unit;
  state : state;
}

type 'm program = 'm api prog

type 'm t = ('m, 'm api, topology) Network.core
type 'm undo = 'm Network.undo

type run_result = Network.run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}

let create_with ~carry ?sink ?seed topo make_program =
  let n = Gtopology.n topo in
  let links = Gtopology.num_links topo in
  let dst f = Array.init links (fun l -> f (Gtopology.link_dst topo l)) in
  Network.create_graph ~carry ?sink ?seed topo ~dst_node:(dst fst)
    ~dst_port:(dst snd)
    ~first_link:(Array.init n (Gtopology.first_link topo))
    ~degree:(Array.init n (Gtopology.degree topo))
    make_program

let create ?sink ?seed topo make_program =
  create_with ~carry:Network.Pulses ?sink ?seed topo make_program

include Network.Core

let sends t = Metrics.sends (metrics t)

let post_termination_deliveries t =
  Metrics.post_termination_deliveries (metrics t)
