(* walk-graph128: a closed loop of sequential [Gelection.run_report]
   calls.  Each round is one walk election on theta:128 and one on
   random2ec:128:<seed>, ID_max = 256, random scheduler, with both
   plans built in set-up.  The same counting work as elect-ring256 on
   the graph engine (Gnetwork) instead of the ring engine. *)

open Colring_engine
open Common
module Gelection = Colring_graph.Gelection
module Gnetwork = Colring_graph.Gnetwork
module Topo = Colring_harness.Topo
module Election = Colring_core.Election
module Ids = Colring_core.Ids
module Rng = Colring_stats.Rng

let n = 128
let id_max = 256
let pool = 64

let plans ~seed =
  List.map
    (fun t -> Gelection.plan (Topo.materialize ~default_n:n t))
    [ Topo.Theta n; Topo.Random2ec { n; seed } ]

type election = Gelection.plan * int array * int

let inputs ~seed : election list array =
  let plans = plans ~seed in
  let base = Rng.create ~seed in
  Array.init pool (fun k ->
      let rng = Rng.split_at base k in
      List.mapi
        (fun i p -> (p, Ids.distinct rng ~n ~id_max, Rng.bits rng 30 + i))
        plans)

let elect ((plan, ids, seed) : election) =
  let r =
    Gelection.run_report ~seed plan ~ids
      ~sched:(Scheduler.random (Rng.create ~seed))
  in
  (r.Gelection.deliveries, Gelection.ok r)

let round es =
  List.fold_left
    (fun (d, bad) e ->
      let d', ok = elect e in
      (d + d', if ok then bad else bad + 1))
    (0, 0) es

let run ~seed ~seconds ?max_ops () =
  let inp, setup =
    repeated_setup ~reps:9 (fun () ->
        let inp = inputs ~seed in
        ignore (round inp.(0));
        inp)
  in
  closed_rounds ~label:"walk-graph128" ~seconds ?max_ops ~setup ~heap:heap_mb
    (fun k -> two_elections (round inp.(k mod pool)))

(* ------------------------------------------------------------------ *)
(* The traced run, as in [Ring.trace] but over Gnetwork. *)

let wrap_program (e : Spans.engine) (p : unit Gnetwork.program) =
  let wrapped = ref None in
  let wrap (api : unit Gnetwork.api) =
    match !wrapped with
    | Some w -> w
    | None ->
        let w =
          {
            api with
            Gnetwork.send =
              Spans.timed2 Spans.api_layer e.Spans.send api.Gnetwork.send;
            recv = Spans.timed Spans.api_layer e.Spans.recv api.Gnetwork.recv;
          }
        in
        wrapped := Some w;
        w
  in
  {
    p with
    Gnetwork.start = (fun api -> p.Gnetwork.start (wrap api));
    wake =
      (fun api ->
        Spans.timed Spans.wake_layer e.Spans.wake p.Gnetwork.wake (wrap api));
  }

let traced e ~layered ((plan, ids, seed) : election) =
  let g = Colring_graph.Ears.topo (Gelection.decomposition plan) in
  let program v =
    let p = Gelection.program_of plan ~ids v in
    if layered then wrap_program e p else p
  in
  let net = Spans.create e ~layered (fun () -> Gnetwork.create ~seed g program) in
  let sched = Scheduler.random (Rng.create ~seed) in
  let sched = if layered then Spans.pick e sched else sched in
  let step () = Gnetwork.step net sched in
  let deliver = if layered then Spans.deliver_layered else Spans.deliver_whole in
  while deliver e step do
    ()
  done;
  ( Metrics.deliveries (Gnetwork.metrics net),
    Gnetwork.is_quiescent net
    && Gnetwork.sends net = Gelection.expected_sends plan ~ids
    && Election.unique_leader (Gnetwork.outputs net) = Some (Ids.argmax ids) )

let trace ~seed ~seconds =
  say "graph layers (Gnetwork) on walk-graph128 inputs, 1 in %d deliveries \
       timed" Spans.sample_every;
  let plan_ms =
    Array.init 5 (fun _ ->
        let t0 = now_ns () in
        ignore (plans ~seed);
        since_s t0 *. 1e3 /. 2.)
  in
  let elections, failed, metrics =
    Spans.engine_group ~prefix:"gnetwork." ~net:"gnetwork." ~seconds
      ~rounds:(inputs ~seed) ~plain:elect ~traced
  in
  (elections, failed, summary "gelection.plan_ms" "ms" plan_ms :: metrics)
