(* check-algo3-n5: one exhaustive [Mc.check ~jobs:nproc] per repetition
   on Algorithm 3 (improved IDs) at n = 5.  The instance is pinned (IDs
   from seed 1, topology seed 2, as the engine ledger uses) because its
   state count is the correctness gate: exactly 581,288 states, verdict
   verified.  Only the undo, fingerprint, seen-table, POR and work
   stealing paths run; the [Network.run] loop never does. *)

open Colring_engine
open Common
module Mc = Colring_mc.Mc
module Election = Colring_core.Election
module Ids = Colring_core.Ids
module Rng = Colring_stats.Rng

let pinned_states = 581_288

let spec ~n =
  let ids = Ids.distinct (Rng.create ~seed:1) ~n ~id_max:n in
  Colring_mc.Spec.election
    (Election.Algo3 Colring_core.Algo3.Improved)
    ~ids ~topo_seed:2

let jobs () = Domain.recommended_domain_count ()

(* The gate: verified over the whole space, with the pinned count. *)
let verified ~pinned (r : Mc.result) =
  Option.is_none r.Mc.counterexample
  && (not r.Mc.stats.Mc.truncated)
  && r.Mc.stats.Mc.states = pinned

let run ?(pinned = pinned_states) ~seconds ?max_ops () =
  let jobs = jobs () in
  (* Set-up: build the spec and warm the domain pool on the n = 3
     instance. *)
  let spec, setup =
    repeated_setup ~reps:15 ~ref_jobs:jobs (fun () ->
        ignore (Mc.check ~jobs (spec ~n:3));
        spec ~n:5)
  in
  say "check-algo3-n5: one check per round at -j %d; ops are states" jobs;
  closed_rounds ~label:"check-algo3-n5" ~seconds ?max_ops ~ref_jobs:jobs ~setup
    ~heap:heap_mb
    (fun _ ->
      let r = Mc.check ~jobs spec in
      let s = r.Mc.stats in
      let ok = verified ~pinned r in
      if not ok then
        say "check-algo3-n5: FAILED gate: %d states (pinned %d), %s" s.Mc.states
          pinned
          (match r.Mc.counterexample with
          | Some c -> c.Mc.violation
          | None -> if s.Mc.truncated then "truncated" else "verified");
      {
        ops = s.Mc.states;
        deliveries = s.Mc.undone_deliveries + s.Mc.replayed_deliveries;
        checked = 1;
        bad = Bool.to_int (not ok);
        lat = [||];
      })

(* ------------------------------------------------------------------ *)
(* Model-checker layers: counts from [Mc.stats], time per call from
   random walks over the spec's own network. *)

let nth_enabled net i =
  let rec go after i =
    let l = Network.enabled_link net ~after in
    if i = 0 then l else go l (i - 1)
  in
  go (-1) i

let micro ~seconds spec =
  let clock = Spans.calibrate () in
  let fsu = Spans.span () and undo = Spans.span () and fp = Spans.span () in
  let rng = Rng.create ~seed:7 in
  let _ =
    timed_loop ~seconds (fun _ ->
        let net = spec.Mc.make () in
        let stack = ref [] in
        while Network.enabled_count net > 0 do
          let t0 = now_ns () in
          ignore (Sys.opaque_identity (Network.fingerprint net));
          Spans.close fp t0;
          let link = nth_enabled net (Rng.int rng (Network.enabled_count net)) in
          let t0 = now_ns () in
          let u = Network.force_step_undo net ~link in
          Spans.close fsu t0;
          let t0 = now_ns () in
          Network.undo_step net u;
          Spans.close undo t0;
          stack := Network.force_step_undo net ~link :: !stack
        done;
        List.iter
          (fun u ->
            let t0 = now_ns () in
            Network.undo_step net u;
            Spans.close undo t0)
          !stack)
  in
  let per (s : Spans.span) =
    (float_of_int s.Spans.ns /. float_of_int (max 1 s.Spans.calls))
    -. clock
  in
  (per fsu, per undo, per fp)

let trace ~seconds =
  let jobs = jobs () in
  say "model-checker layers (Mc) on check-algo3-n5, one check at -j %d" jobs;
  let spec = spec ~n:5 in
  let t0 = now_ns () in
  let r = Mc.check ~jobs spec in
  let wall = since_s t0 in
  let s = r.Mc.stats in
  let fsu_ns, undo_ns, fp_ns = micro ~seconds spec in
  let f = float_of_int in
  let states = f s.Mc.states in
  let pruned = f (s.Mc.sleep_pruned + s.Mc.dedup_pruned) in
  (* Domain-time the check had, in ns: the denominator of the shares. *)
  let busy_ns = wall *. 1e9 *. f jobs in
  let fingerprints = states +. f s.Mc.dedup_pruned in
  say "  stats: states=%d undone=%d replayed=%d sleep_pruned=%d dedup_pruned=%d \
       wall=%.3f s"
    s.Mc.states s.Mc.undone_deliveries s.Mc.replayed_deliveries
    s.Mc.sleep_pruned s.Mc.dedup_pruned wall;
  let failed = if verified ~pinned:pinned_states r then 0 else 1 in
  ( 1,
    failed,
    [
      single "mc.undone_per_state" "count" (f s.Mc.undone_deliveries /. states);
      single "mc.prune_ratio" "frac" (pruned /. (states +. pruned));
      single "mc.force_step_undo_ns" "ns" fsu_ns;
      single "mc.undo_step_ns" "ns" undo_ns;
      single "mc.fingerprint_ns" "ns" fp_ns;
      single "mc.undo_share" "frac"
        (f s.Mc.undone_deliveries *. undo_ns /. busy_ns);
      single "mc.fingerprint_share" "frac" (fingerprints *. fp_ns /. busy_ns);
    ] )
