module Rng = Colring_stats.Rng

(* Domain-safety contract (enforced by the shared-state lint,
   tools/lint/lint_domain.ml): a flock is single-domain.  Nothing in
   this file is declared in shared.sexp on purpose — every mutable
   below (the struct-of-arrays slots, queues, mailboxes) belongs to
   whichever domain built the flock, and cross-domain reuse goes
   through [Harness.Batch]'s per-domain [Domain.DLS] cache, which
   hands each domain its own instance.  Sharing one [Flock.t] across
   domains is a bug the lint would flag at the spawn site. *)

(* Slot statuses, kept as ints so the stepping loop compares against
   immediates: 0 = idle (never loaded or released), 1 = running,
   2 = settled (no pulses in flight), 3 = exhausted (delivery budget
   hit).  The [status] accessor maps them back to the variant. *)

type status = Idle | Running | Settled | Exhausted

(* A channel in a pulse network carries no payload, so an envelope is
   pure metadata: a stride-3 circular buffer of (seq, batch, depth)
   behind a record holding head and length ({!Network}'s per-link stamp
   queues keep the same stamps in one flat array, head and length in
   front).  Capacity 0 or a power of two, doubled on overflow. *)
type pq = { mutable meta : int array; mutable head : int; mutable len : int }

let pq_create () = { meta = [||]; head = 0; len = 0 }

let pq_grow q =
  let cap = Array.length q.meta / 3 in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let meta = Array.make (3 * ncap) 0 in
  for i = 0 to q.len - 1 do
    let s = 3 * ((q.head + i) land (cap - 1)) in
    meta.(3 * i) <- q.meta.(s);
    meta.((3 * i) + 1) <- q.meta.(s + 1);
    meta.((3 * i) + 2) <- q.meta.(s + 2)
  done;
  q.meta <- meta;
  q.head <- 0

let pq_push q ~seq ~batch ~depth =
  if Int.equal (3 * q.len) (Array.length q.meta) then pq_grow q;
  let s = 3 * ((q.head + q.len) land ((Array.length q.meta / 3) - 1)) in
  q.meta.(s) <- seq;
  q.meta.(s + 1) <- batch;
  q.meta.(s + 2) <- depth;
  q.len <- q.len + 1

(* Head accessors are only called on non-empty queues (schedulers see
   a link only while it is in the non-empty set). *)
let pq_head_seq q = q.meta.(3 * q.head)
let pq_head_batch q = q.meta.((3 * q.head) + 1)

let pq_pop q =
  q.head <- (q.head + 1) land ((Array.length q.meta / 3) - 1);
  q.len <- q.len - 1

type t = {
  topo : Topology.t;
  n : int;
  links : int;
  slots : int;
  (* Shared, precomputed per link (the topology shape is common to
     every instance, so link -> destination lookups are one array
     read instead of a [Topology.link_dst] tuple). *)
  dst_node : int array;
  dst_port_ix : int array;
  cw : bool array;
  (* Per (slot, link): channel queues and the incremental
     non-empty-link set.  [nonempty] is an array per slot (not a flat
     slice) because each slot's scheduler view aliases its row. *)
  chans : pq array;
  nonempty : int array array;
  link_pos : int array;
  (* Per (slot, node, port): mailbox depth.  A pulse mailbox is just a
     count, as in a {!Network} pulse network. *)
  mcount : int array;
  (* Per (slot, node). *)
  outputs : Output.t array;
  term : bool array;
  term_order : int array;
  local_clock : int array;
  programs : Network.pulse Network.program array;
  mutable apis : Network.pulse Network.api array;
  (* Per-slot scalars, struct-of-arrays. *)
  status : int array;
  nonempty_count : int array;
  next_seq : int array;
  next_batch : int array;
  in_flight : int array;
  backlog : int array;
  term_count : int array;
  causal : int array;
  sends : int array;
  sends_cw : int array;
  deliveries : int array;
  consumes : int array;
  wakes : int array;
  post_term : int array;
  budget : int array;
  snap_every : int array;
  sinks : Sink.t array;
  observed : bool array;
  enabled : bool array;
  scheds : Scheduler.t array;
  views : Scheduler.view array;
  (* One inert stream shared by every slot loaded with [~rng:false];
     never drawn from (the caller promises the programs are
     deterministic), it only keeps the api records total. *)
  dummy_rng : Rng.t;
}

(* ---------------------------------------------------------------- *)
(* Hot path: the per-delivery functions below are registered in
   tools/lint/hot.sexp and mirror lib/engine/network.ml line for
   line — inline counter stores, then the user-sink callback behind
   the non-null [observed] guard — with every per-instance field
   indexed by slot. *)

let mark_nonempty t s link =
  let lp = (s * t.links) + link in
  if t.link_pos.(lp) < 0 then begin
    let row = t.nonempty.(s) in
    let c = t.nonempty_count.(s) in
    row.(c) <- link;
    t.link_pos.(lp) <- c;
    t.nonempty_count.(s) <- c + 1
  end

(* Called with [link]'s queue already known empty. *)
let unmark t s link =
  let lp = (s * t.links) + link in
  let row = t.nonempty.(s) in
  let pos = t.link_pos.(lp) in
  let last = t.nonempty_count.(s) - 1 in
  let moved = row.(last) in
  row.(pos) <- moved;
  t.link_pos.((s * t.links) + moved) <- pos;
  t.link_pos.(lp) <- -1;
  t.nonempty_count.(s) <- last

(* [node]'s part of the envelope stamp ([local_clock] index and the
   sink's node label) is passed pre-offset by the api closures. *)
let enqueue t s ~link ~node ~nv ~port =
  let seq = t.next_seq.(s) in
  t.next_seq.(s) <- seq + 1;
  mark_nonempty t s link;
  pq_push
    t.chans.((s * t.links) + link)
    ~seq ~batch:t.next_batch.(s)
    ~depth:(t.local_clock.(nv) + 1);
  t.in_flight.(s) <- t.in_flight.(s) + 1;
  t.sends.(s) <- t.sends.(s) + 1;
  if t.cw.(link) then t.sends_cw.(s) <- t.sends_cw.(s) + 1;
  if t.observed.(s) then
    t.sinks.(s).Sink.on_send ~node ~port ~seq ~link ~cw:t.cw.(link)

let deliver t s link =
  let q = t.chans.((s * t.links) + link) in
  let h = 3 * q.head in
  let seq = q.meta.(h) in
  let depth = q.meta.(h + 2) in
  pq_pop q;
  if q.len = 0 then unmark t s link;
  t.in_flight.(s) <- t.in_flight.(s) - 1;
  let dst = t.dst_node.(link) in
  let nv = (s * t.n) + dst in
  if t.term.(nv) then begin
    t.post_term.(s) <- t.post_term.(s) + 1;
    if t.observed.(s) then
      t.sinks.(s).Sink.on_drop ~node:dst ~port:t.dst_port_ix.(link) ~seq
  end
  else begin
    t.deliveries.(s) <- t.deliveries.(s) + 1;
    if t.observed.(s) then
      t.sinks.(s).Sink.on_deliver ~node:dst ~port:t.dst_port_ix.(link) ~seq;
    t.mcount.((nv * 2) + t.dst_port_ix.(link)) <-
      t.mcount.((nv * 2) + t.dst_port_ix.(link)) + 1;
    t.backlog.(s) <- t.backlog.(s) + 1;
    if depth > t.local_clock.(nv) then t.local_clock.(nv) <- depth;
    if depth > t.causal.(s) then t.causal.(s) <- depth;
    t.next_batch.(s) <- t.next_batch.(s) + 1;
    t.wakes.(s) <- t.wakes.(s) + 1;
    if t.observed.(s) then t.sinks.(s).Sink.on_wake ~node:dst;
    t.programs.(nv).Network.wake t.apis.(nv)
  end

let view t s =
  let v = t.views.(s) in
  v.Scheduler.count <- t.nonempty_count.(s);
  v.Scheduler.step <- t.deliveries.(s);
  v

(* Counter snapshots match [Metrics.to_assoc] key for key (the frozen
   alphabetical schema), so flock journals and Network journals are
   interchangeable. *)
let metrics_assoc t s =
  [
    ("consumes", t.consumes.(s));
    ("deliveries", t.deliveries.(s));
    ("post_termination_deliveries", t.post_term.(s));
    ("sends", t.sends.(s));
    ("sends_ccw", t.sends.(s) - t.sends_cw.(s));
    ("sends_cw", t.sends_cw.(s));
    ("wakes", t.wakes.(s));
  ]

let emit_snapshot t s =
  t.sinks.(s).Sink.on_snapshot ~step:t.deliveries.(s) (metrics_assoc t s)

(* One delivery for slot [s], with [Network.run]'s loop conditions in
   the same order: budget first (the slot parks as exhausted), then
   quiescence of the channel system, then a scheduler pick.  The
   snapshot cadence check runs after every delivery, exactly as the
   single-instance run loop does. *)
let step t s =
  if t.status.(s) <> 1 then false
  else if t.deliveries.(s) >= t.budget.(s) then begin
    t.status.(s) <- 3;
    false
  end
  else if t.in_flight.(s) = 0 then begin
    t.status.(s) <- 2;
    false
  end
  else begin
    deliver t s (t.scheds.(s).Scheduler.pick (view t s));
    (if t.enabled.(s) && t.snap_every.(s) > 0 then
       if t.deliveries.(s) mod t.snap_every.(s) = 0 then emit_snapshot t s);
    true
  end

(* [step] unrolled over a batch for the drain loop: the status check
   runs once for the whole batch (a delivery never changes it — only
   the two parking transitions below do), everything else keeps
   [step]'s condition order and snapshot cadence. *)
let rec step_batch t s remaining =
  if remaining > 0 then
    if t.deliveries.(s) >= t.budget.(s) then t.status.(s) <- 3
    else if t.in_flight.(s) = 0 then t.status.(s) <- 2
    else begin
      deliver t s (t.scheds.(s).Scheduler.pick (view t s));
      (if t.enabled.(s) && t.snap_every.(s) > 0 then
         if t.deliveries.(s) mod t.snap_every.(s) = 0 then emit_snapshot t s);
      step_batch t s (remaining - 1)
    end

(* ---------------------------------------------------------------- *)
(* Construction *)

let make_view t s =
  let base = s * t.links in
  {
    Scheduler.nonempty = t.nonempty.(s);
    count = 0;
    head_seq = (fun link -> pq_head_seq t.chans.(base + link));
    head_batch = (fun link -> pq_head_batch t.chans.(base + link));
    travels_cw = (fun link -> if t.cw.(link) then Some true else Some false);
    dst_node = (fun link -> t.dst_node.(link));
    step = 0;
  }

let make_api t s v =
  let nv = (s * t.n) + v in
  (* Mailbox cells and outgoing link ids, resolved once per api
     instead of per call. *)
  let mb0 = nv * 2 in
  let mb1 = (nv * 2) + 1 in
  let l0 = Topology.link_id t.topo v Port.P0 in
  let l1 = Topology.link_id t.topo v Port.P1 in
  let consume p =
    t.backlog.(s) <- t.backlog.(s) - 1;
    t.consumes.(s) <- t.consumes.(s) + 1;
    if t.observed.(s) then
      t.sinks.(s).Sink.on_consume ~node:v ~port:(Port.index p)
  in
  let cell p = match p with Port.P0 -> mb0 | Port.P1 -> mb1 in
  let recv p =
    let c = cell p in
    if t.mcount.(c) = 0 then None
    else begin
      t.mcount.(c) <- t.mcount.(c) - 1;
      consume p;
      Some Network.pulse
    end
  in
  let recv_pulse p =
    let c = cell p in
    if t.mcount.(c) = 0 then false
    else begin
      t.mcount.(c) <- t.mcount.(c) - 1;
      consume p;
      true
    end
  in
  let peek p = if t.mcount.(cell p) = 0 then None else Some Network.pulse in
  let pending p = t.mcount.(cell p) in
  let send p m =
    ignore m;
    if t.term.(nv) then failwith "Network: send after terminate";
    enqueue t s
      ~link:(match p with Port.P0 -> l0 | Port.P1 -> l1)
      ~node:v ~nv ~port:(Port.index p)
  in
  let set_output o =
    if not (Output.equal t.outputs.(nv) o) then begin
      t.outputs.(nv) <- o;
      if t.observed.(s) then t.sinks.(s).Sink.on_decide ~node:v ~output:o
    end
  in
  let terminate () =
    if not t.term.(nv) then begin
      t.term.(nv) <- true;
      let c = t.term_count.(s) in
      t.term_order.((s * t.n) + c) <- v;
      t.term_count.(s) <- c + 1;
      if t.observed.(s) then t.sinks.(s).Sink.on_terminate ~node:v
    end
  in
  {
    Network.node = v;
    recv;
    recv_pulse;
    peek;
    pending;
    send;
    set_output;
    terminate;
    rng = t.dummy_rng;
  }

let dummy_view =
  {
    Scheduler.nonempty = [||];
    count = 0;
    head_seq = (fun _ -> 0);
    head_batch = (fun _ -> 0);
    travels_cw = (fun _ -> None);
    dst_node = (fun _ -> 0);
    step = 0;
  }

let create ?(slots = 256) topo =
  if slots < 1 then invalid_arg "Flock.create: slots must be >= 1";
  Topology.check topo;
  let n = Topology.n topo in
  let links = Topology.num_links topo in
  let k = slots in
  let dummy_rng = Rng.create ~seed:0 in
  let t =
    {
      topo;
      n;
      links;
      slots = k;
      dst_node = Array.init links (fun l -> fst (Topology.link_dst topo l));
      dst_port_ix =
        Array.init links (fun l -> Port.index (snd (Topology.link_dst topo l)));
      cw = Array.init links (fun l -> Topology.link_travels_cw topo l);
      chans = Array.init (k * links) (fun _ -> pq_create ());
      nonempty = Array.init k (fun _ -> Array.make links 0);
      link_pos = Array.make (k * links) (-1);
      mcount = Array.make (k * n * 2) 0;
      outputs = Array.make (k * n) Output.empty;
      term = Array.make (k * n) false;
      term_order = Array.make (k * n) 0;
      local_clock = Array.make (k * n) 0;
      programs = Array.make (k * n) Network.silent_program;
      apis = [||];
      status = Array.make k 0;
      nonempty_count = Array.make k 0;
      next_seq = Array.make k 0;
      next_batch = Array.make k 0;
      in_flight = Array.make k 0;
      backlog = Array.make k 0;
      term_count = Array.make k 0;
      causal = Array.make k 0;
      sends = Array.make k 0;
      sends_cw = Array.make k 0;
      deliveries = Array.make k 0;
      consumes = Array.make k 0;
      wakes = Array.make k 0;
      post_term = Array.make k 0;
      budget = Array.make k 0;
      snap_every = Array.make k 0;
      sinks = Array.make k Sink.null;
      observed = Array.make k false;
      enabled = Array.make k false;
      scheds = Array.make k Scheduler.fifo;
      views = Array.make k dummy_view;
      dummy_rng;
    }
  in
  (* The per-slot views and per-(slot, node) api closures need [t]
     itself, so they are filled in after construction, once, and
     recycled across loads. *)
  t.apis <- Array.init (k * n) (fun i -> make_api t (i / n) (i mod n));
  for s = 0 to k - 1 do
    t.views.(s) <- make_view t s
  done;
  t

(* ---------------------------------------------------------------- *)
(* Loading and draining *)

let reset_slot t s =
  let n = t.n and links = t.links in
  let nbase = s * n and lbase = s * links in
  for l = 0 to links - 1 do
    let q = t.chans.(lbase + l) in
    q.head <- 0;
    q.len <- 0;
    t.link_pos.(lbase + l) <- -1
  done;
  for v = 0 to n - 1 do
    t.mcount.((nbase + v) * 2) <- 0;
    t.mcount.(((nbase + v) * 2) + 1) <- 0;
    t.outputs.(nbase + v) <- Output.empty;
    t.term.(nbase + v) <- false;
    t.term_order.(nbase + v) <- 0;
    t.local_clock.(nbase + v) <- 0;
    t.programs.(nbase + v) <- Network.silent_program
  done;
  t.nonempty_count.(s) <- 0;
  t.next_seq.(s) <- 0;
  t.next_batch.(s) <- 0;
  t.in_flight.(s) <- 0;
  t.backlog.(s) <- 0;
  t.term_count.(s) <- 0;
  t.causal.(s) <- 0;
  t.sends.(s) <- 0;
  t.sends_cw.(s) <- 0;
  t.deliveries.(s) <- 0;
  t.consumes.(s) <- 0;
  t.wakes.(s) <- 0;
  t.post_term.(s) <- 0

let load t ~slot ?(seed = 0) ?(rng = true) ?(max_deliveries = 50_000_000)
    ?(snapshot_every = 0) ?(sink = Sink.null) ~sched make_program =
  if slot < 0 || slot >= t.slots then invalid_arg "Flock.load: bad slot";
  if t.status.(slot) = 1 then invalid_arg "Flock.load: slot is running";
  if max_deliveries < 1 then
    invalid_arg "Flock.load: max_deliveries must be >= 1";
  reset_slot t slot;
  let nbase = slot * t.n in
  for v = 0 to t.n - 1 do
    t.programs.(nbase + v) <- make_program v
  done;
  (* Per-node streams are split from the instance seed exactly as
     [Network.create] splits them, so a program that draws sees the
     same stream it would see in a single-instance run.  With
     [~rng:false] every api keeps the shared inert stream — the
     caller asserts the programs never touch [api.rng], and skipping
     the [Rng.split_at] calls is most of the per-instance setup
     cost. *)
  (if rng then begin
     let root = Rng.create ~seed in
     for v = 0 to t.n - 1 do
       t.apis.(nbase + v).Network.rng <- Rng.split_at root v
     done
   end
   else
     for v = 0 to t.n - 1 do
       t.apis.(nbase + v).Network.rng <- t.dummy_rng
     done);
  t.budget.(slot) <- max_deliveries;
  t.snap_every.(slot) <- snapshot_every;
  t.sinks.(slot) <- sink;
  t.observed.(slot) <- not (sink == Sink.null);
  t.enabled.(slot) <- sink.Sink.enabled;
  t.scheds.(slot) <- sched;
  t.status.(slot) <- 1;
  (* Start-up activations, in [Network.create]'s order: batch bump,
     wake, then the program's one initial activation, node by node. *)
  for v = 0 to t.n - 1 do
    t.next_batch.(slot) <- t.next_batch.(slot) + 1;
    t.wakes.(slot) <- t.wakes.(slot) + 1;
    if t.observed.(slot) then t.sinks.(slot).Sink.on_wake ~node:v;
    t.programs.(nbase + v).Network.start t.apis.(nbase + v)
  done

let drain ?(batch = 64) ?on_complete t =
  if batch < 1 then invalid_arg "Flock.drain: batch must be >= 1";
  let live = ref true in
  while !live do
    live := false;
    for s = 0 to t.slots - 1 do
      if t.status.(s) = 1 then begin
        step_batch t s batch;
        if t.status.(s) = 1 then live := true
        else match on_complete with None -> () | Some f -> f s
      end
    done
  done

let release t s =
  if s < 0 || s >= t.slots then invalid_arg "Flock.release: bad slot";
  if t.status.(s) = 1 then invalid_arg "Flock.release: slot is running";
  t.status.(s) <- 0

(* ---------------------------------------------------------------- *)
(* Observation *)

let check_slot t s name =
  if s < 0 || s >= t.slots then invalid_arg name

let status t s =
  check_slot t s "Flock.status: bad slot";
  match t.status.(s) with
  | 0 -> Idle
  | 1 -> Running
  | 2 -> Settled
  | _ -> Exhausted

let slots t = t.slots
let size t = t.n
let topology t = t.topo
let sends t s = t.sends.(s)
let sends_cw t s = t.sends_cw.(s)
let sends_ccw t s = t.sends.(s) - t.sends_cw.(s)
let deliveries t s = t.deliveries.(s)
let consumes t s = t.consumes.(s)
let wakes t s = t.wakes.(s)
let post_termination_deliveries t s = t.post_term.(s)
let causal_span t s = t.causal.(s)
let in_flight t s = t.in_flight.(s)
let mailbox_backlog t s = t.backlog.(s)
let quiescent t s = t.in_flight.(s) = 0 && t.backlog.(s) = 0
let exhausted t s = t.status.(s) = 3

let all_terminated t s =
  let ok = ref true in
  for v = 0 to t.n - 1 do
    if not t.term.((s * t.n) + v) then ok := false
  done;
  !ok

let terminated t ~slot ~node = t.term.((slot * t.n) + node)

let termination_order t s =
  List.init t.term_count.(s) (fun i -> t.term_order.((s * t.n) + i))

let output t ~slot ~node = t.outputs.((slot * t.n) + node)
let outputs t s = Array.sub t.outputs (s * t.n) t.n
let inspect t ~slot ~node = t.programs.((slot * t.n) + node).Network.inspect ()
