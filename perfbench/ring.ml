(* elect-ring256: a closed loop of sequential [Election.run_report]
   calls.  Each round is one Algorithm 2 election on the oriented ring
   and one Algorithm 3 (improved IDs) election on a random
   non-oriented ring, n = 256, ID_max = 512, random scheduler.  A round
   is 130k-260k deliveries per election, so the ring engine's
   per-delivery path does nearly all the work. *)

open Colring_engine
open Common
module Election = Colring_core.Election
module Formulas = Colring_core.Formulas
module Ids = Colring_core.Ids
module Rng = Colring_stats.Rng

let n = 256
let id_max = 512

(* Distinct rounds generated in set-up; a run cycles through them. *)
let pool = 64

type election = Election.algorithm * Topology.t * int array * int

let algo3 = Election.Algo3 Colring_core.Algo3.Improved

let inputs ~seed : election list array =
  let base = Rng.create ~seed in
  let oriented = Topology.oriented n in
  Array.init pool (fun k ->
      let rng = Rng.split_at base k in
      let ids2 = Ids.distinct rng ~n ~id_max in
      let ids3 = Ids.distinct rng ~n ~id_max in
      let topo3 = Topology.random_non_oriented rng n in
      let s = Rng.bits rng 30 in
      [ (Election.Algo2, oriented, ids2, s); (algo3, topo3, ids3, s + 1) ])

let elect ((algo, topo, ids, seed) : election) =
  let r =
    Election.run_report ~seed algo ~topo ~ids
      ~sched:(Scheduler.random (Rng.create ~seed))
  in
  (r.Election.deliveries, Election.ok r)

(* Both elections of a round: total deliveries and failed verdicts. *)
let round es =
  List.fold_left
    (fun (d, bad) e ->
      let d', ok = elect e in
      (d + d', if ok then bad else bad + 1))
    (0, 0) es

let run ~seed ~seconds ?max_ops () =
  let inp, setup =
    repeated_setup ~reps:7 (fun () ->
        let inp = inputs ~seed in
        ignore (round inp.(0));
        inp)
  in
  closed_rounds ~label:"elect-ring256" ~seconds ?max_ops ~setup ~heap:heap_mb
    (fun k -> two_elections (round inp.(k mod pool)))

(* ------------------------------------------------------------------ *)
(* The traced run: the same elections driven through [Network.step]
   from the benchmark's own loop; on layered rounds the scheduler, the
   programs and their api records are wrapped. *)

let wrap_program (e : Spans.engine) (p : Network.pulse Network.program) =
  let wrapped = ref None in
  let wrap (api : Network.pulse Network.api) =
    match !wrapped with
    | Some w -> w
    | None ->
        let w =
          {
            api with
            Network.send = Spans.timed2 Spans.api_layer e.Spans.send api.Network.send;
            recv = Spans.timed Spans.api_layer e.Spans.recv api.Network.recv;
            recv_pulse =
              Spans.timed Spans.api_layer e.Spans.recv api.Network.recv_pulse;
          }
        in
        wrapped := Some w;
        w
  in
  {
    p with
    Network.start = (fun api -> p.Network.start (wrap api));
    wake =
      (fun api -> Spans.timed Spans.wake_layer e.Spans.wake p.Network.wake (wrap api));
  }

let expected_sends = function
  | Election.Algo2 -> Formulas.algo2_total ~n ~id_max
  | _ -> Formulas.algo3_improved_total ~n ~id_max

let traced e ~layered ((algo, topo, ids, seed) : election) =
  let program v =
    let p = Election.program_of algo ~id:ids.(v) in
    if layered then wrap_program e p else p
  in
  let net =
    Spans.create e ~layered (fun () -> Network.create ~seed topo program)
  in
  let sched = Scheduler.random (Rng.create ~seed) in
  let sched = if layered then Spans.pick e sched else sched in
  let step () = Network.step net sched in
  let deliver = if layered then Spans.deliver_layered else Spans.deliver_whole in
  while deliver e step do
    ()
  done;
  let m = Network.metrics net in
  ( Metrics.deliveries m,
    Network.is_quiescent net
    && Metrics.sends m = expected_sends algo
    && Election.unique_leader (Network.outputs net) = Some (Ids.argmax ids) )

let trace ~seed ~seconds =
  say "engine layers (Network) on elect-ring256 inputs, 1 in %d deliveries \
       timed" Spans.sample_every;
  Spans.engine_group ~prefix:"" ~net:"network." ~seconds
    ~rounds:(inputs ~seed) ~plain:elect ~traced
