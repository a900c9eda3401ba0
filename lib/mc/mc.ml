open Colring_engine
module Pool = Colring_runtime.Pool

type stats = {
  states : int;
  schedules : int;
  replayed_deliveries : int;
  undone_deliveries : int;
  sleep_pruned : int;
  dedup_pruned : int;
  max_depth_seen : int;
  truncated : bool;
}

type counterexample = { schedule : int array; violation : string }
type result = { stats : stats; counterexample : counterexample option }

type reduction = Sleep | Source of { live : int }
type sym = { key : string; perm : int array }

let depth_violation = "depth budget exceeded (possible non-termination)"

let zero_stats =
  {
    states = 0;
    schedules = 0;
    replayed_deliveries = 0;
    undone_deliveries = 0;
    sleep_pruned = 0;
    dedup_pruned = 0;
    max_depth_seen = 0;
    truncated = false;
  }

(* ------------------------------------------------------------------ *)
(* Sleep-set bit masks over link ids (hot leaves; see hot.sexp). *)

let bit l = 1 lsl l
let subset m z = m land z = m

(* Prune a revisited state only when it was previously expanded under
   a sleep set included in the current one: everything the current
   expansion would explore was already explored then. *)
let seen_covers seen key z =
  match Hashtbl.find_opt seen key with
  | None -> false
  | Some masks -> List.exists (fun m -> subset m z) masks

let seen_add seen key z =
  let masks =
    match Hashtbl.find_opt seen key with None -> [] | Some ms -> ms
  in
  (* Recorded masks that include [z] are now redundant: [z] covers
     every future sleep set they cover. *)
  Hashtbl.replace seen key (z :: List.filter (fun m -> not (subset z m)) masks)

(* ------------------------------------------------------------------ *)
(* Per-unit DFS accumulator (shared across engine instantiations) *)

type acc = {
  mutable states : int;
  mutable schedules : int;
  mutable replayed : int;
  mutable undone : int;
  mutable sleep_pruned : int;
  mutable dedup_pruned : int;
  mutable max_depth_seen : int;
  mutable truncated : bool;
  mutable stopped : bool;
  mutable aborted : bool;
      (* Stopped by the cross-task ticket throttle, whose firing point
         depends on scheduling: the whole unit is nondeterministic and
         must be recomputed by the canonical repair pass. *)
  mutable ce : counterexample option;
}

let fresh_acc () =
  {
    states = 0;
    schedules = 0;
    replayed = 0;
    undone = 0;
    sleep_pruned = 0;
    dedup_pruned = 0;
    max_depth_seen = 0;
    truncated = false;
    stopped = false;
    aborted = false;
    ce = None;
  }

let add_stats (s : stats) (a : acc) =
  {
    states = s.states + a.states;
    schedules = s.schedules + a.schedules;
    replayed_deliveries = s.replayed_deliveries + a.replayed;
    undone_deliveries = s.undone_deliveries + a.undone;
    sleep_pruned = s.sleep_pruned + a.sleep_pruned;
    dedup_pruned = s.dedup_pruned + a.dedup_pruned;
    max_depth_seen = max s.max_depth_seen a.max_depth_seen;
    truncated = s.truncated || a.truncated;
  }

(* ------------------------------------------------------------------ *)
(* The checker, generic over the unified engine surface *)

module type S = sig
  type 'm net

  type 'm spec = {
    name : string;
    make : unit -> 'm net;
    monitor : unit -> 'm net -> string option;
    terminal : 'm net -> string option;
    max_depth : int;
    dedup : bool;
    reduction : reduction;
    symmetry : ('m net -> sym) option;
    expect_violation : bool;
  }

  val check :
    ?jobs:int ->
    ?max_states:int ->
    ?minimized:bool ->
    ?split:int ->
    ?undo_depth:int ->
    'm spec ->
    result

  val replay : 'm spec -> int array -> 'm net * string option
  val minimize : 'm spec -> counterexample -> counterexample
  val confirm : 'm spec -> counterexample -> bool
end

module Make (N : Engine_intf.NETWORK) = struct
  type 'm net = 'm N.t

  type 'm spec = {
    name : string;
    make : unit -> 'm net;
    monitor : unit -> 'm net -> string option;
    terminal : 'm net -> string option;
    max_depth : int;
    dedup : bool;
    reduction : reduction;
    symmetry : ('m net -> sym) option;
    expect_violation : bool;
  }

  (* Rebuild a state by re-forcing a recorded choice prefix on a fresh
     network, feeding the (fresh) monitor after every delivery so its
     internal state matches the walk that first checked this prefix.
     Returns the first monitor violation with its step count — a
     frontier prefix's final edge has not been monitored yet when a
     task first replays it. *)
  let replay_prefix net mon path len =
    let rec go i =
      if i >= len then None
      else begin
        N.force_step net ~link:path.(i);
        match mon net with Some v -> Some (i + 1, v) | None -> go (i + 1)
      end
    in
    go 0

  (* The dedup key extends the engine fingerprint with the monotone
     send/delivery/drop counters: two states merge only when their
     whole observable configuration AND their progress counters agree,
     which keeps every safety monitor used here a function of the
     state (see DESIGN.md section 8 for the soundness argument). *)
  let state_key net =
    let m = N.metrics net in
    Printf.sprintf "%d/%d/%d#%s" (Metrics.sends m) (Metrics.deliveries m)
      (Metrics.post_termination_deliveries m)
      (N.fingerprint net)

  let enabled_links net =
    let k = N.enabled_count net in
    let links = Array.make (max k 1) 0 in
    let l = ref (N.enabled_link net ~after:(-1)) in
    let i = ref 0 in
    while !l >= 0 do
      links.(!i) <- !l;
      incr i;
      l := N.enabled_link net ~after:!l
    done;
    Array.sub links 0 !i

  (* ---------------------------------------------------------------- *)
  (* Exploration context: everything per-[check] and read-only during
     the walk, so seed pass, parallel tasks and repair pass share it. *)

  type 'm ctx = {
    spec : 'm spec;
    indep : int array;  (* indep.(l): links commuting with l *)
    live_in : int array;  (* per node: its in-links ∩ the live set *)
    n_nodes : int;
  }

  let permute_mask perm m =
    let r = ref 0 in
    Array.iteri (fun l l' -> if m land bit l <> 0 then r := !r lor bit l') perm;
    !r

  (* Dedup in canonical space: under a symmetry, the key is the
     canonical representative's and the sleep mask is carried along by
     the canonicalizing link permutation, so covering works modulo the
     symmetry group.  Sound because the checked properties are
     required to be invariant under the declared symmetry. *)
  let dedup_prune ctx seen net sleep (st : acc) =
    ctx.spec.dedup
    &&
    let key, mask =
      match ctx.spec.symmetry with
      | None -> (state_key net, sleep)
      | Some f ->
          let s = f net in
          (s.key, permute_mask s.perm sleep)
    in
    if seen_covers seen key mask then begin
      st.dedup_pruned <- st.dedup_pruned + 1;
      true
    end
    else begin
      seen_add seen key mask;
      false
    end

  (* Source-set reduction: a delivery mutates only its destination
     node, so deliveries into distinct nodes commute, and the set of
     enabled deliveries into ONE node [d] is a persistent (source) set
     — provided no in-link of [d] can later become non-empty and add a
     conflicting delivery.  The [live] mask (links that can ever carry
     a pulse, declared by the spec) closes that gap: [d] is eligible
     only when EVERY live in-link of [d] already holds a message, so
     the deferred deliveries into other nodes can never enable a new
     conflicting delivery into [d].  The smallest eligible node is
     chosen canonically; with none eligible the full enabled set is
     explored (sound fallback).  See DESIGN.md section 8. *)
  let branch_links ctx links =
    match ctx.spec.reduction with
    | Sleep -> links
    | Source { live } ->
        let mask = Array.fold_left (fun m l -> m lor bit l) 0 links in
        if mask land lnot live <> 0 then
          invalid_arg
            (Printf.sprintf
               "Mc.check(%s): message in flight on a link outside the \
                declared live set — the Source reduction would be unsound"
               ctx.spec.name);
        let rec find d =
          if d >= ctx.n_nodes then links
          else
            let lm = ctx.live_in.(d) in
            if lm <> 0 && subset lm mask then
              (* All live in-links of [d] are non-empty: branch on them
                 alone. *)
              Array.of_list
                (List.filter
                   (fun l -> lm land bit l <> 0)
                   (Array.to_list links))
            else find (d + 1)
        in
        find 0

  (* ---------------------------------------------------------------- *)
  (* One unit of exploration: replay a frontier prefix, then DFS the
     whole subtree.  Backtracking uses per-delivery incremental undo
     ([N.force_step_undo]/[N.undo_step]) when the network supports it
     and the node sits above [undo_depth]; deeper nodes (and networks
     without snapshot codecs) fall back to replay-from-prefix, taking
     care to restore the entry state on exit so enclosing undo records
     stay applicable. *)

  let run_unit ctx ~budget ~tickets ~ticket_cap ~undo_depth ~prefix
      ~init_sleep =
    let spec = ctx.spec in
    let st = fresh_acc () in
    let seen = Hashtbl.create 1024 in
    let path = Array.make (spec.max_depth + 1) 0 in
    let plen = Array.length prefix in
    Array.blit prefix 0 path 0 plen;
    let net = ref (spec.make ()) in
    let mon = ref (spec.monitor ()) in
    let fail depth violation =
      st.ce <- Some { schedule = Array.sub path 0 depth; violation }
    in
    let rebuild depth =
      net := spec.make ();
      mon := spec.monitor ();
      (match replay_prefix !net !mon path depth with
      | Some _ ->
          (* The prefix was monitored when first walked. *)
          assert false
      | None -> ());
      st.replayed <- st.replayed + depth
    in
    let undo_ok = N.undo_capable !net in
    let running () = Option.is_none st.ce && not st.stopped in
    let rec expand depth sleep =
      if running () then begin
        if depth > st.max_depth_seen then st.max_depth_seen <- depth;
        if not (dedup_prune ctx seen !net sleep st) then begin
          (match tickets with
          | Some a ->
              if Atomic.fetch_and_add a 1 >= ticket_cap then begin
                st.aborted <- true;
                st.stopped <- true
              end
          | None -> ());
          (* Strict budget: a state the budget cannot pay for is never
             expanded (nor counted), so the repaired global total is
             capped at exactly [max_states]. *)
          if (not st.stopped) && st.states >= budget then begin
            st.truncated <- true;
            st.stopped <- true
          end;
          if st.stopped then ()
          else begin
            st.states <- st.states + 1;
            if N.enabled_count !net = 0 then begin
              st.schedules <- st.schedules + 1;
              match spec.terminal !net with
              | Some v -> fail depth v
              | None -> ()
            end
            else if depth >= spec.max_depth then fail depth depth_violation
            else begin
            let links = branch_links ctx (enabled_links !net) in
            if undo_ok && depth < undo_depth then begin
              let sleep_now = ref sleep in
              Array.iter
                (fun l ->
                  if running () then
                    if !sleep_now land bit l <> 0 then
                      st.sleep_pruned <- st.sleep_pruned + 1
                    else begin
                      path.(depth) <- l;
                      let u = N.force_step_undo !net ~link:l in
                      (match !mon !net with
                      | Some v -> fail (depth + 1) v
                      | None -> expand (depth + 1) (!sleep_now land ctx.indep.(l)));
                      (* Once the unit stops (counterexample or budget)
                         the network is abandoned wholesale; undoing a
                         record against a state some replay-mode
                         descendant left behind would be wrong. *)
                      if running () then begin
                        N.undo_step !net u;
                        st.undone <- st.undone + 1
                      end;
                      sleep_now := !sleep_now lor bit l
                    end)
                links
            end
            else begin
              (* Replay-mode node: descending consumes the live
                 network; each later sibling rebuilds the parent by
                 replaying the recorded prefix (the engine is
                 deterministic, so the choice sequence IS the
                 snapshot). *)
              let sleep_now = ref sleep in
              let live = ref true in
              Array.iter
                (fun l ->
                  if running () then
                    if !sleep_now land bit l <> 0 then
                      st.sleep_pruned <- st.sleep_pruned + 1
                    else begin
                      if not !live then rebuild depth;
                      live := false;
                      path.(depth) <- l;
                      N.force_step !net ~link:l;
                      (match !mon !net with
                      | Some v -> fail (depth + 1) v
                      | None -> expand (depth + 1) (!sleep_now land ctx.indep.(l)));
                      sleep_now := !sleep_now lor bit l
                    end)
                links;
              (* Undo records held by shallower frames apply to any
                 state-identical network, but only at THIS state: the
                 boundary node (the topmost replay-mode frame, sitting
                 directly under undo-mode frames) restores it before
                 returning into undo territory.  Deeper replay frames
                 skip the restore — their parent rebuilds on demand. *)
              if undo_ok && depth = undo_depth && running () && not !live then
                rebuild depth
            end
          end
          end
        end
      end
    in
    (match replay_prefix !net !mon path plen with
    | Some (len, v) -> fail len v
    | None -> expand plen init_sleep);
    st.replayed <- st.replayed + plen;
    st

  (* ---------------------------------------------------------------- *)
  (* Replay and minimization *)

  exception Infeasible

  (* Longest prefix of [sched] up to and including the first
     violation: [Some (len, v)] when one occurs (including a
     terminal-state violation after the last step), [None] when the
     schedule is violation-free or does not fit the run. *)
  let first_violation spec sched =
    let net = spec.make () in
    let mon = spec.monitor () in
    let len = Array.length sched in
    let rec go i =
      if i >= len then
        if N.enabled_count net = 0 then
          match spec.terminal net with Some v -> Some (len, v) | None -> None
        else None
      else begin
        (try N.force_step net ~link:sched.(i)
         with Invalid_argument _ -> raise Infeasible);
        match mon net with Some v -> Some (i + 1, v) | None -> go (i + 1)
      end
    in
    match go 0 with x -> x | exception Infeasible -> None

  let replay spec schedule =
    let net = spec.make () in
    let mon = spec.monitor () in
    let violation = ref None in
    Array.iter
      (fun link ->
        N.force_step net ~link;
        if Option.is_none !violation then violation := mon net)
      schedule;
    (if Option.is_none !violation && N.enabled_count net = 0 then
       violation := spec.terminal net);
    if Option.is_none !violation && Array.length schedule >= spec.max_depth
    then violation := Some depth_violation;
    (net, !violation)

  (* Independent confirmation of a counterexample: drive the schedule
     through the engine's ORDINARY run loop via
     [Scheduler.of_schedule] — not the checker's [force_step] path —
     and demand that a violation reproduces.  This catches minimizer
     bugs (a shrunk schedule that is infeasible, or feasible but
     clean) before a counterexample is ever reported. *)
  let confirm spec ce =
    let net = spec.make () in
    let mon = spec.monitor () in
    let hit = ref None in
    let probe ~step:_ = if Option.is_none !hit then hit := mon net in
    let len = Array.length ce.schedule in
    match
      N.run ~max_deliveries:len ~probe net (Scheduler.of_schedule ce.schedule)
    with
    | exception Invalid_argument _ -> false (* schedule does not fit *)
    | _ ->
        (if Option.is_none !hit && N.enabled_count net = 0 then
           hit := spec.terminal net);
        (if Option.is_none !hit && len >= spec.max_depth then
           hit := Some depth_violation);
        Option.is_some !hit

  let minimize spec ce =
    if String.equal ce.violation depth_violation then
      (* Every proper subsequence is shorter than the depth budget and
         so cannot exhibit this violation; the schedule is already
         minimal for its class. *)
      ce
    else begin
      let cur = ref ce.schedule in
      let viol = ref ce.violation in
      (* Truncate at the first violating step, then greedily drop
         single deliveries (re-truncating after each success) to a
         fixpoint. *)
      (match first_violation spec !cur with
      | Some (len, v) ->
          cur := Array.sub !cur 0 len;
          viol := v
      | None -> ());
      let changed = ref true in
      while !changed do
        changed := false;
        let i = ref 0 in
        while !i < Array.length !cur do
          let n = Array.length !cur in
          let cand =
            Array.init (n - 1) (fun j ->
                if j < !i then !cur.(j) else !cur.(j + 1))
          in
          match first_violation spec cand with
          | Some (len, v) ->
              cur := Array.sub cand 0 len;
              viol := v;
              changed := true
          | None -> incr i
        done
      done;
      let m = { schedule = !cur; violation = !viol } in
      (* A minimized schedule must reproduce through the ordinary run
         loop; fall back to the original counterexample otherwise. *)
      if confirm spec m then m else ce
    end

  (* ---------------------------------------------------------------- *)
  (* The checker *)

  (* Task-frontier construction: a bounded sequential BFS from the
     root.  Expanded states are accounted exactly like DFS states
     (same dedup, same reductions, same budget); unexpanded frontier
     entries become the parallel tasks.  The frontier — and hence
     every downstream number — is a pure function of the spec and
     [split], never of [jobs]. *)

  type seed_outcome = {
    seed_acc : acc;
    frontier : (int array * int) array;  (* (prefix, sleep) in order *)
  }

  let seed_explore ctx ~split ~max_states =
    let spec = ctx.spec in
    let st = fresh_acc () in
    let seen = Hashtbl.create 1024 in
    let q = Queue.create () in
    Queue.add ([||], 0) q;
    let fail prefix len v =
      st.ce <- Some { schedule = Array.sub prefix 0 len; violation = v }
    in
    while
      Option.is_none st.ce && (not st.stopped)
      && Queue.length q > 0
      && Queue.length q < split
    do
      let prefix, sleep = Queue.pop q in
      let plen = Array.length prefix in
      let net = spec.make () in
      let mon = spec.monitor () in
      (match replay_prefix net mon prefix plen with
      | Some (len, v) -> fail prefix len v
      | None ->
          st.replayed <- st.replayed + plen;
          if plen > st.max_depth_seen then st.max_depth_seen <- plen;
          if not (dedup_prune ctx seen net sleep st) then begin
            (* Strict budget, as in [run_unit]: an unpayable state is
               neither counted nor expanded. *)
            if st.states >= max_states then begin
              st.truncated <- true;
              st.stopped <- true
            end
            else begin
            st.states <- st.states + 1;
            if N.enabled_count net = 0 then begin
              st.schedules <- st.schedules + 1;
              match spec.terminal net with
              | Some v -> fail prefix plen v
              | None -> ()
            end
            else if plen >= spec.max_depth then
              fail prefix plen depth_violation
            else begin
              let links = branch_links ctx (enabled_links net) in
              let sleep_now = ref sleep in
              Array.iter
                (fun l ->
                  if !sleep_now land bit l <> 0 then
                    st.sleep_pruned <- st.sleep_pruned + 1
                  else begin
                    let child = Array.make (plen + 1) 0 in
                    Array.blit prefix 0 child 0 plen;
                    child.(plen) <- l;
                    Queue.add (child, !sleep_now land ctx.indep.(l)) q;
                    sleep_now := !sleep_now lor bit l
                  end)
                links
            end
            end
          end);
      ()
    done;
    let frontier =
      if Option.is_some st.ce || st.stopped then [||]
      else Array.of_seq (Queue.to_seq q)
    in
    { seed_acc = st; frontier }

  let check ?(jobs = 1) ?(max_states = 1_000_000) ?(minimized = true)
      ?(split = 16) ?(undo_depth = max_int) spec =
    if spec.max_depth < 1 then invalid_arg "Mc.check: max_depth < 1";
    if split < 1 then invalid_arg "Mc.check: split < 1";
    let probe = spec.make () in
    let topo = N.topology probe in
    let num_links = N.num_links topo in
    if num_links > 60 then
      invalid_arg "Mc.check: more than 60 links (sleep sets are int masks)";
    (* [indep.(l)]: links whose deliveries commute with a delivery on
       [l] — exactly those with a different destination node.  A
       delivery mutates only its destination's state, pops its own
       channel's head and pushes to the destination's outgoing
       channels; for distinct destinations these operations commute
       (pushes and pops on a shared channel touch opposite ends). *)
    let indep = Array.make num_links 0 in
    for l = 0 to num_links - 1 do
      for l' = 0 to num_links - 1 do
        if N.link_dst_node topo l' <> N.link_dst_node topo l then
          indep.(l) <- indep.(l) lor bit l'
      done
    done;
    let n_nodes = N.size probe in
    let live_in = Array.make n_nodes 0 in
    (match spec.reduction with
    | Sleep -> ()
    | Source { live } ->
        for l = 0 to num_links - 1 do
          if live land bit l <> 0 then
            let d = N.link_dst_node topo l in
            live_in.(d) <- live_in.(d) lor bit l
        done);
    let ctx = { spec; indep; live_in; n_nodes } in
    let finish stats counterexample =
      let counterexample =
        if minimized then Option.map (minimize spec) counterexample
        else counterexample
      in
      { stats; counterexample }
    in
    match (spec.monitor ()) probe with
    | Some v ->
        finish zero_stats (Some { schedule = [||]; violation = v })
    | None -> (
        let seed = seed_explore ctx ~split ~max_states in
        let stats0 = add_stats zero_stats seed.seed_acc in
        match Array.length seed.frontier with
        | 0 -> finish stats0 seed.seed_acc.ce
        | k ->
            (* Parallel phase: every frontier subtree is an independent
               pure unit, so results are jobs-independent; the shared
               ticket counter is ONLY a throttle that stops the fleet
               doing much more than [max_states] of work in total.
               Units the throttle touched are nondeterministic and get
               recomputed below. *)
            let tickets = Atomic.make seed.seed_acc.states in
            let units =
              Pool.map ~mode:Pool.Steal ~jobs k (fun i ->
                  let prefix, sleep = seed.frontier.(i) in
                  run_unit ctx ~budget:max_states ~tickets:(Some tickets)
                    ~ticket_cap:max_states ~undo_depth ~prefix
                    ~init_sleep:sleep)
            in
            (* Canonical repair pass: fold the units in frontier order
               against the ONE global budget, exactly as a sequential
               run with a shared counter would.  A unit is reused
               verbatim only if the throttle never touched it and it
               fits the remaining budget; otherwise it is recomputed
               sequentially under the exact remainder.  The first
               counterexample in frontier order wins and later units
               are dropped wholesale — which is also what makes the
               early throttle aborts invisible. *)
            let stats = ref stats0 in
            let ce = ref None in
            let i = ref 0 in
            while Option.is_none !ce && !i < k do
              let remaining = max_states - (!stats).states in
              if remaining <= 0 then begin
                stats := { !stats with truncated = true };
                i := k
              end
              else begin
                let u = units.(!i) in
                let u =
                  if (not u.aborted) && u.states <= remaining then u
                  else begin
                    let prefix, sleep = seed.frontier.(!i) in
                    run_unit ctx ~budget:remaining ~tickets:None
                      ~ticket_cap:max_states ~undo_depth ~prefix
                      ~init_sleep:sleep
                  end
                in
                stats := add_stats !stats u;
                ce := u.ce;
                incr i
              end
            done;
            finish !stats !ce)
end

(* The historical ring-engine API: [Mc.check] and friends are the ring
   instantiation of the functor, included at top level so existing
   specs and callers compile unchanged. *)
include Make (Unify.Ring_network)
