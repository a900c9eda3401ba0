module Rng = Colring_stats.Rng

type 'm api = {
  node : int;
  recv : Port.t -> 'm option;
  recv_pulse : Port.t -> bool;
  peek : Port.t -> 'm option;
  pending : Port.t -> int;
  send : Port.t -> 'm -> unit;
  set_output : Output.t -> unit;
  terminate : unit -> unit;
  mutable rng : Rng.t;
}

type 'm program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  inspect : unit -> (string * int) list;
  snap : Engine_intf.snapshot option;
}

let silent_program =
  {
    start = (fun _ -> ());
    wake = (fun _ -> ());
    inspect = (fun () -> []);
    snap = Some { Engine_intf.save = (fun () -> [||]); load = (fun _ -> ()) };
  }

(* Per-step journal scratch for [force_step_undo]: the wake's consumed
   pulses (port + payload) and sent links, in order.  One per network,
   reused across steps; arrays grow by doubling and are copied out
   into each undo record. *)
type 'm ulog = {
  mutable cports : int array;
  mutable cpayloads : 'm array;
  mutable clen : int;
  mutable slinks : int array;
  mutable slen : int;
}

let ulog_create () =
  { cports = [||]; cpayloads = [||]; clen = 0; slinks = [||]; slen = 0 }

let grow_ints a len =
  if Int.equal len (Array.length a) then
    Array.append a (Array.make (max 8 len) 0)
  else a

let ulog_send g link =
  g.slinks <- grow_ints g.slinks g.slen;
  g.slinks.(g.slen) <- link;
  g.slen <- g.slen + 1

let ulog_consume g port m =
  g.cports <- grow_ints g.cports g.clen;
  if Int.equal g.clen (Array.length g.cpayloads) then
    g.cpayloads <- Array.append g.cpayloads (Array.make (max 8 g.clen) m);
  g.cports.(g.clen) <- port;
  g.cpayloads.(g.clen) <- m;
  g.clen <- g.clen + 1

type 'm t = {
  topo : Topology.t;
  programs : 'm program array;
  mutable apis : 'm api array;
  channels : 'm Envq.t array; (* by link id *)
  mailboxes : 'm Ring.t array; (* node * 2 + port *)
  (* Per-link tables precomputed from [topo], so the delivery path
     reads one array cell where it would call into [Topology]. *)
  dst_node : int array;
  dst_port : int array; (* port index at the destination *)
  cw : bool array;
  outputs : Output.t array;
  term : bool array;
  mutable term_order_rev : int list;
  (* The engine's own counters, written inline on the delivery path
     (the same updates {!Sink.counters} makes through [Metrics.on_*]). *)
  metrics : Metrics.t;
  (* The caller's sink, called directly after the counters move.
     [live] is [not (sink == Sink.null)]: every per-event callback
     sits behind it, so the default path makes no sink call at all,
     while a non-null sink sees every event even when it is not
     [enabled].  [observed] is [sink.enabled], the guard for records
     that must allocate their payload (snapshots). *)
  sink : Sink.t;
  live : bool;
  observed : bool;
  mutable next_seq : int;
  mutable next_batch : int;
  mutable in_flight : int;
  mutable mailbox_backlog : int;
  (* Causal clocks: [local_clock.(v)] is the largest causal depth of
     any pulse delivered to v; pulses sent by v's current activation
     carry depth [local_clock.(v) + 1].  The maximum over all delivered
     pulses is the run's asynchronous time (every message counted as
     one time unit). *)
  local_clock : int array;
  mutable causal_span : int;
  (* The non-empty-link set, maintained incrementally on send/deliver:
     the first [nonempty_count] entries of [nonempty] are the links
     with pulses in flight (unordered), and [link_pos] is the inverse
     permutation (-1 when absent).  [nonempty] doubles as the scratch
     buffer of the reusable scheduler [view], so refreshing a view
     copies nothing. *)
  nonempty : int array;
  link_pos : int array;
  mutable nonempty_count : int;
  mutable view : Scheduler.view;
  (* Incremental-undo support: [ulog] collects the current step's wake
     effects while [logging] is set (only inside [force_step_undo]);
     [undo_ok] is fixed at creation — every program must carry a
     [snap] codec and no user sink may observe the run, since emitted
     events cannot be unemitted. *)
  ulog : 'm ulog;
  mutable logging : bool;
  undo_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Hot path: the per-delivery functions below are registered in
   tools/lint/hot.sexp.  Dune's dev profile compiles with [-opaque],
   so no call into another module is ever inlined; the only indirect
   calls left per delivery are the scheduler's [pick], the program's
   [wake] and its api closures — counters are inline stores, link
   lookups are table reads, and queue stamps are read in place. *)

let port_index p = match p with Port.P0 -> 0 | Port.P1 -> 1
let slot v p = (v * 2) + port_index p

let mark_nonempty t link =
  if t.link_pos.(link) < 0 then begin
    t.nonempty.(t.nonempty_count) <- link;
    t.link_pos.(link) <- t.nonempty_count;
    t.nonempty_count <- t.nonempty_count + 1
  end

let unmark_if_empty t link =
  if t.channels.(link).Envq.len = 0 then begin
    let pos = t.link_pos.(link) in
    let last = t.nonempty_count - 1 in
    let moved = t.nonempty.(last) in
    t.nonempty.(pos) <- moved;
    t.link_pos.(moved) <- pos;
    t.link_pos.(link) <- -1;
    t.nonempty_count <- last
  end

(* The one enqueue path: [send] and [inject] share it, so both stamp
   envelopes with the batch convention of the current activation
   ([t.next_batch] is bumped at activation boundaries only).  Sink
   callbacks take immediate arguments only — no event value is
   materialised — so the steady-state hot path allocates nothing. *)
let enqueue t ~link ~node ~port m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  mark_nonempty t link;
  Envq.push t.channels.(link) m ~seq ~batch:t.next_batch
    ~depth:(t.local_clock.(node) + 1);
  t.in_flight <- t.in_flight + 1;
  let c = t.metrics in
  let cw = t.cw.(link) in
  c.sends <- c.sends + 1;
  if cw then c.sends_cw <- c.sends_cw + 1;
  c.sends_by_node.(node) <- c.sends_by_node.(node) + 1;
  c.sends_by_link.(link) <- c.sends_by_link.(link) + 1;
  if t.logging then ulog_send t.ulog link;
  if t.live then t.sink.Sink.on_send ~node ~port ~seq ~link ~cw

(* The wake's side of a mailbox read: [i] is the mailbox slot
   ([node * 2 + port]), which is also the counter index. *)
let consume t ~node ~port i =
  t.mailbox_backlog <- t.mailbox_backlog - 1;
  let c = t.metrics in
  c.consumes <- c.consumes + 1;
  c.consumed.(i) <- c.consumed.(i) + 1;
  if t.live then t.sink.Sink.on_consume ~node ~port

let make_api t v rng =
  (* Mailboxes, their slots and the outgoing link ids, resolved once
     per api instead of per call. *)
  let i0 = v * 2 in
  let mb0 = t.mailboxes.(i0) and mb1 = t.mailboxes.(i0 + 1) in
  let l0 = Topology.link_id t.topo v Port.P0 in
  let l1 = Topology.link_id t.topo v Port.P1 in
  let recv p =
    let mb = match p with Port.P0 -> mb0 | Port.P1 -> mb1 in
    if mb.Ring.len = 0 then None
    else begin
      let m = Ring.pop mb in
      let pi = port_index p in
      consume t ~node:v ~port:pi (i0 + pi);
      if t.logging then ulog_consume t.ulog pi m;
      Some m
    end
  in
  let recv_pulse p =
    let mb = match p with Port.P0 -> mb0 | Port.P1 -> mb1 in
    if mb.Ring.len = 0 then false
    else begin
      let m = Ring.pop mb in
      let pi = port_index p in
      consume t ~node:v ~port:pi (i0 + pi);
      if t.logging then ulog_consume t.ulog pi m;
      true
    end
  in
  let peek p =
    let mb = match p with Port.P0 -> mb0 | Port.P1 -> mb1 in
    if mb.Ring.len = 0 then None else Some (Ring.peek mb)
  in
  let pending p = Ring.length (match p with Port.P0 -> mb0 | Port.P1 -> mb1) in
  let send p m =
    if t.term.(v) then failwith "Network: send after terminate";
    match p with
    | Port.P0 -> enqueue t ~link:l0 ~node:v ~port:0 m
    | Port.P1 -> enqueue t ~link:l1 ~node:v ~port:1 m
  in
  let set_output o =
    if not (Output.equal t.outputs.(v) o) then begin
      t.outputs.(v) <- o;
      if t.live then t.sink.Sink.on_decide ~node:v ~output:o
    end
  in
  let terminate () =
    if not t.term.(v) then begin
      t.term.(v) <- true;
      t.term_order_rev <- v :: t.term_order_rev;
      if t.live then t.sink.Sink.on_terminate ~node:v
    end
  in
  { node = v; recv; recv_pulse; peek; pending; send; set_output; terminate; rng }

let create ?(sink = Sink.null) ?(seed = 0) topo make_program =
  Topology.check topo;
  let n = Topology.n topo in
  let num_links = Topology.num_links topo in
  let programs = Array.init n make_program in
  let undo_ok =
    (not sink.Sink.enabled)
    && Array.for_all (fun p -> Option.is_some p.snap) programs
  in
  let t =
    {
      topo;
      programs;
      apis = [||];
      channels = Array.init num_links (fun _ -> Envq.create ());
      mailboxes = Array.init (n * 2) (fun _ -> Ring.create ());
      dst_node = Array.init num_links (fun l -> fst (Topology.link_dst topo l));
      dst_port =
        Array.init num_links (fun l ->
            Port.index (snd (Topology.link_dst topo l)));
      cw = Array.init num_links (Topology.link_travels_cw topo);
      outputs = Array.make n Output.empty;
      term = Array.make n false;
      term_order_rev = [];
      metrics = Metrics.create ~n_nodes:n ~n_links:num_links ();
      sink;
      live = not (sink == Sink.null);
      observed = sink.Sink.enabled;
      next_seq = 0;
      next_batch = 0;
      in_flight = 0;
      mailbox_backlog = 0;
      local_clock = Array.make n 0;
      causal_span = 0;
      nonempty = Array.make num_links 0;
      link_pos = Array.make num_links (-1);
      nonempty_count = 0;
      ulog = ulog_create ();
      logging = false;
      undo_ok;
      view =
        {
          Scheduler.nonempty = [||];
          count = 0;
          head_seq = (fun _ -> 0);
          head_batch = (fun _ -> 0);
          travels_cw = (fun _ -> None);
          dst_node = (fun _ -> 0);
          step = 0;
        };
    }
  in
  (* The reusable scheduler view: closures are built once here, and
     [nonempty] aliases the incrementally-maintained set, so refreshing
     a view per step is two integer stores.  Schedulers only ask about
     links in the non-empty set, so the head stamps are read in place. *)
  t.view <-
    {
      Scheduler.nonempty = t.nonempty;
      count = 0;
      head_seq =
        (fun link ->
          let q = t.channels.(link) in
          q.Envq.meta.(3 * q.Envq.head));
      head_batch =
        (fun link ->
          let q = t.channels.(link) in
          q.Envq.meta.((3 * q.Envq.head) + 1));
      travels_cw =
        (* Static [Some] constants: the per-pick closure must not
           allocate. *)
        (fun link -> if t.cw.(link) then Some true else Some false);
      dst_node = (fun link -> t.dst_node.(link));
      step = 0;
    };
  let root_rng = Rng.create ~seed in
  t.apis <- Array.init n (fun v -> make_api t v (Rng.split_at root_rng v));
  for v = 0 to n - 1 do
    t.next_batch <- t.next_batch + 1;
    t.metrics.Metrics.wakes <- t.metrics.Metrics.wakes + 1;
    if t.live then t.sink.Sink.on_wake ~node:v;
    t.programs.(v).start t.apis.(v)
  done;
  t

let view t =
  let v = t.view in
  v.Scheduler.count <- t.nonempty_count;
  v.Scheduler.step <- t.metrics.Metrics.deliveries;
  v

let deliver_from t link =
  let q = t.channels.(link) in
  if q.Envq.len = 0 then invalid_arg "Network: delivery from an empty link";
  let h = 3 * q.Envq.head in
  let seq = q.Envq.meta.(h) in
  let depth = q.Envq.meta.(h + 2) in
  let payload = Envq.pop q in
  unmark_if_empty t link;
  t.in_flight <- t.in_flight - 1;
  let dst = t.dst_node.(link) in
  let port = t.dst_port.(link) in
  let c = t.metrics in
  if t.term.(dst) then begin
    (* Terminated nodes ignore pulses; each such arrival is a
       violation of quiescent termination, which tests assert away. *)
    c.post_term <- c.post_term + 1;
    if t.live then t.sink.Sink.on_drop ~node:dst ~port ~seq
  end
  else begin
    let i = (dst * 2) + port in
    c.deliveries <- c.deliveries + 1;
    c.delivered.(i) <- c.delivered.(i) + 1;
    if t.live then t.sink.Sink.on_deliver ~node:dst ~port ~seq;
    Ring.push t.mailboxes.(i) payload;
    t.mailbox_backlog <- t.mailbox_backlog + 1;
    if depth > t.local_clock.(dst) then t.local_clock.(dst) <- depth;
    if depth > t.causal_span then t.causal_span <- depth;
    t.next_batch <- t.next_batch + 1;
    c.wakes <- c.wakes + 1;
    if t.live then t.sink.Sink.on_wake ~node:dst;
    t.programs.(dst).wake t.apis.(dst)
  end

let step t (sched : Scheduler.t) =
  if t.in_flight = 0 then false
  else begin
    deliver_from t (sched.pick (view t));
    true
  end

let active_links t =
  let acc = ref [] in
  for link = Array.length t.channels - 1 downto 0 do
    if not (Envq.is_empty t.channels.(link)) then acc := link :: !acc
  done;
  !acc

let force_step t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Network.force_step: empty link";
  deliver_from t link

(* ------------------------------------------------------------------ *)
(* Incremental undo (Engine_intf.NETWORK contract).  One record per
   delivery: the popped envelope with its stamps, the destination's
   pre-wake program snapshot and engine-side scalars, and the wake's
   journalled consume/send effects.  [undo_step] applies the inverses
   in reverse order, so a LIFO stack of records walks the network back
   along any prefix of the forced schedule. *)

type 'm undo = {
  u_link : int;
  u_payload : 'm;
  u_seq : int;
  u_batch : int;
  u_depth : int;
  u_dst : int;
  u_dst_port : int;
  u_dropped : bool; (* destination was terminated: no wake ran *)
  u_prev_output : Output.t;
  u_became_term : bool;
  u_prev_clock : int;
  u_prev_span : int;
  u_prev_next_seq : int;
  u_prev_next_batch : int;
  u_snap : int array; (* destination program state before the wake *)
  u_consumed_ports : int array;
  u_consumed_payloads : 'm array;
  u_sent_links : int array;
}

let undo_capable t = t.undo_ok

let force_step_undo t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Network.force_step_undo: empty link";
  if not t.undo_ok then
    invalid_arg "Network.force_step_undo: network is not undo-capable";
  let q = t.channels.(link) in
  let u_seq = Envq.head_seq q in
  let u_batch = Envq.head_batch q in
  let u_depth = Envq.head_depth q in
  let u_payload = Envq.peek q in
  let dst = t.dst_node.(link) in
  let dropped = t.term.(dst) in
  let u_snap =
    if dropped then [||]
    else
      match t.programs.(dst).snap with
      | Some s -> s.Engine_intf.save ()
      | None -> assert false (* undo_ok *)
  in
  let u_prev_output = t.outputs.(dst) in
  let u_prev_clock = t.local_clock.(dst) in
  let u_prev_span = t.causal_span in
  let u_prev_next_seq = t.next_seq in
  let u_prev_next_batch = t.next_batch in
  let g = t.ulog in
  g.clen <- 0;
  g.slen <- 0;
  t.logging <- true;
  deliver_from t link;
  t.logging <- false;
  {
    u_link = link;
    u_payload;
    u_seq;
    u_batch;
    u_depth;
    u_dst = dst;
    u_dst_port = t.dst_port.(link);
    u_dropped = dropped;
    u_prev_output;
    u_became_term = (not dropped) && t.term.(dst);
    u_prev_clock;
    u_prev_span;
    u_prev_next_seq;
    u_prev_next_batch;
    u_snap;
    u_consumed_ports = Array.sub g.cports 0 g.clen;
    u_consumed_payloads = Array.sub g.cpayloads 0 g.clen;
    u_sent_links = Array.sub g.slinks 0 g.slen;
  }

let undo_step t u =
  let dst = u.u_dst in
  if u.u_dropped then Metrics.undo_post_termination_delivery t.metrics
  else begin
    (* Retract the wake's sends, newest first. *)
    for i = Array.length u.u_sent_links - 1 downto 0 do
      let l = u.u_sent_links.(i) in
      ignore (Envq.pop_back t.channels.(l));
      unmark_if_empty t l;
      t.in_flight <- t.in_flight - 1;
      Metrics.undo_send t.metrics ~link:l ~node:dst ~cw:t.cw.(l)
    done;
    (* Re-file the wake's consumed pulses, newest first: this restores
       the mailbox to its state just after the delivery pushed the
       incoming payload at the tail... *)
    for i = Array.length u.u_consumed_ports - 1 downto 0 do
      let p = u.u_consumed_ports.(i) in
      Ring.push_front t.mailboxes.((dst * 2) + p) u.u_consumed_payloads.(i);
      t.mailbox_backlog <- t.mailbox_backlog + 1;
      Metrics.undo_consume t.metrics ~node:dst ~port_index:p
    done;
    (* ... so popping that tail element retracts the delivery. *)
    ignore (Ring.pop_back t.mailboxes.((dst * 2) + u.u_dst_port));
    t.mailbox_backlog <- t.mailbox_backlog - 1;
    Metrics.undo_deliver t.metrics ~node:dst ~port_index:u.u_dst_port;
    Metrics.undo_wake t.metrics;
    (match t.programs.(dst).snap with
    | Some s -> s.Engine_intf.load u.u_snap
    | None -> assert false);
    t.outputs.(dst) <- u.u_prev_output;
    if u.u_became_term then begin
      t.term.(dst) <- false;
      t.term_order_rev <-
        (match t.term_order_rev with _ :: rest -> rest | [] -> assert false)
    end;
    t.local_clock.(dst) <- u.u_prev_clock;
    t.causal_span <- u.u_prev_span;
    t.next_seq <- u.u_prev_next_seq;
    t.next_batch <- u.u_prev_next_batch
  end;
  (* Put the envelope back at the head of its channel. *)
  Envq.push_front t.channels.(u.u_link) u.u_payload ~seq:u.u_seq
    ~batch:u.u_batch ~depth:u.u_depth;
  mark_nonempty t u.u_link;
  t.in_flight <- t.in_flight + 1

let enabled_count t = t.nonempty_count

(* Smallest non-empty link strictly greater than [link], by scanning
   the unordered non-empty buffer; -1 when none.  Written as a
   top-level tail recursion over immediate arguments so an enumeration
   of the enabled set allocates nothing (the model checker calls this
   in its innermost loop). *)
let rec enabled_scan t link i best =
  if i >= t.nonempty_count then best
  else
    let l = t.nonempty.(i) in
    if l > link && (best < 0 || l < best) then enabled_scan t link (i + 1) l
    else enabled_scan t link (i + 1) best

let enabled_link t ~after = enabled_scan t after 0 (-1)

let channel_length t ~link = Envq.length t.channels.(link)
let mailbox_length t ~node ~port = Ring.length t.mailboxes.(slot node port)
let channel_payloads t ~link = Envq.to_payload_array t.channels.(link)
let mailbox_payloads t ~node ~port = Ring.to_array t.mailboxes.(slot node port)

let inject t ~node ~port m =
  enqueue t ~link:(Topology.link_id t.topo node port) ~node
    ~port:(port_index port) m

type run_result = Engine_intf.run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}

let all_terminated t = Array.for_all Fun.id t.term
let in_flight t = t.in_flight
let mailbox_backlog t = t.mailbox_backlog
let is_quiescent t = t.in_flight = 0 && t.mailbox_backlog = 0

let run ?(max_deliveries = 50_000_000) ?(snapshot_every = 0) ?probe t sched =
  let c = t.metrics in
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    if c.Metrics.deliveries >= max_deliveries then begin
      exhausted := true;
      continue := false
    end
    else if not (step t sched) then continue := false
    else begin
      (if snapshot_every > 0 && t.observed then
         let d = c.Metrics.deliveries in
         if d mod snapshot_every = 0 then
           t.sink.Sink.on_snapshot ~step:d (Metrics.to_assoc c));
      match probe with
      | None -> ()
      | Some f -> f ~step:c.Metrics.deliveries
    end
  done;
  {
    sends = c.Metrics.sends;
    deliveries = c.Metrics.deliveries;
    quiescent = is_quiescent t;
    all_terminated = all_terminated t;
    exhausted = !exhausted;
    termination_order = List.rev t.term_order_rev;
  }

let causal_span t = t.causal_span

let topology t = t.topo
let size t = Topology.n t.topo
let output t v = t.outputs.(v)
let outputs t = Array.copy t.outputs
let terminated t v = t.term.(v)
let termination_order t = List.rev t.term_order_rev
let inspect t v = t.programs.(v).inspect ()

let inspect_counter t v name =
  match List.assoc_opt name (inspect t v) with
  | Some x -> x
  | None -> raise Not_found

let metrics t = t.metrics
let trace t = Sink.trace t.sink
let num_links topo = Topology.num_links topo
let link_dst_node topo link = fst (Topology.link_dst topo link)

(* Canonical observable-state string; {!Explore.fingerprint} and the
   model checker's dedup key delegate here.  Covers channel depths,
   per-port mailbox depths, termination flags, outputs and inspect
   counters — everything a monitor can see. *)
let fingerprint t =
  let buf = Buffer.create 128 in
  let n = size t in
  for link = 0 to Topology.num_links t.topo - 1 do
    Output.add_int buf (channel_length t ~link);
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf '|';
  for v = 0 to n - 1 do
    Output.add_int buf (mailbox_length t ~node:v ~port:Port.P0);
    Buffer.add_char buf ':';
    Output.add_int buf (mailbox_length t ~node:v ~port:Port.P1);
    Buffer.add_char buf ';';
    Buffer.add_string buf (if terminated t v then "T" else "t");
    Output.add_compact buf (output t v);
    (* Program state via the [inspect] counters, NOT the snapshot
       codec: fingerprints must agree across implementation variants
       that share observable counters but differ in internal layout
       (e.g. the two Algorithm 2 engines in the differential tests). *)
    List.iter
      (fun (k, x) ->
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Output.add_int buf x;
        Buffer.add_char buf ' ')
      (inspect t v);
    Buffer.add_char buf '|'
  done;
  Buffer.contents buf

type pulse = unit

let pulse = ()
