open Colring_engine
module Rng = Colring_stats.Rng

type 'm api = {
  node : int;
  degree : int;
  recv : int -> 'm option;
  pending : int -> int;
  send : int -> 'm -> unit;
  set_output : Output.t -> unit;
  terminate : unit -> unit;
  rng : Rng.t;
}

type 'm program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  inspect : unit -> (string * int) list;
  snap : Engine_intf.snapshot option;
}

(* Per-step journal scratch for [force_step_undo] — the ring engine's
   scheme: the wake's consumed pulses (port + payload) and sent links,
   in order, reused across steps. *)
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
  topo : Gtopology.t;
  programs : 'm program array;
  mutable apis : 'm api array;
  (* Struct-of-arrays queues shared with the ring engine: [Envq] keeps
     the seq/batch stamps of in-flight messages in flat int arrays
     (the depth stamp, a ring-only causal clock, is stored as 0), and
     [Ring] mailboxes support the head/tail surgery the incremental
     undo needs ([push_front]/[pop_back]). *)
  channels : 'm Envq.t array; (* by link id *)
  mailboxes : 'm Ring.t array; (* by link id of the RECEIVING endpoint *)
  (* Tables precomputed from [topo], so the delivery path reads one
     array cell where it would call into [Gtopology]: the receiving
     node and port of every link, and every node's
     [Gtopology.first_link] — node [v]'s port [p] is link (and
     mailbox) [offsets.(v) + p]. *)
  dst_node : int array;
  dst_port : int array;
  offsets : int array;
  outputs : Output.t array;
  term : bool array;
  mutable term_order_rev : int list;
  (* The engine's own counters, written inline on the delivery path
     (the same updates {!Sink.counters} makes through [Metrics.on_*]),
     with the per-port stride [metrics.ports] = the maximum degree. *)
  metrics : Metrics.t;
  (* The caller's sink, called directly after the counters move, as in
     the ring engine: [live] is [not (sink == Sink.null)] and guards
     every per-event callback, so a non-null sink sees every event
     even when it is not [enabled]; [observed] is [sink.enabled], the
     guard for snapshots.  Graph runs therefore journal through the
     same [colring journal] validator as ring runs. *)
  sink : Sink.t;
  live : bool;
  observed : bool;
  mutable next_seq : int;
  mutable next_batch : int;
  mutable in_flight : int;
  mutable backlog : int;
  (* Non-empty-link set maintained incrementally (the ring engine's
     scheme): the first [nonempty_count] entries of [nonempty] are the
     links with messages in flight, [link_pos] the inverse permutation
     (-1 when absent).  [nonempty] doubles as the view's buffer. *)
  nonempty : int array;
  link_pos : int array;
  mutable nonempty_count : int;
  mutable view : Scheduler.view;
  (* Incremental-undo support (see the ring engine): [ulog] collects
     the current step's wake effects while [logging] is set; [undo_ok]
     is fixed at creation. *)
  ulog : 'm ulog;
  mutable logging : bool;
  undo_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Hot path, shaped like the ring engine's (see Network): the
   per-delivery functions below are registered in tools/lint/hot.sexp,
   counters are inline stores, link lookups are table reads and queue
   stamps are read in place, so the only indirect calls per delivery
   are the scheduler's [pick], the program's [wake] and its api
   closures. *)

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

let enqueue t ~link ~node ~port m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Envq.push t.channels.(link) m ~seq ~batch:t.next_batch ~depth:0;
  mark_nonempty t link;
  t.in_flight <- t.in_flight + 1;
  if t.logging then ulog_send t.ulog link;
  (* No global direction exists on a general graph, so every send is
     reported [cw:false]; [Metrics.sends_cw] stays 0. *)
  let c = t.metrics in
  c.sends <- c.sends + 1;
  c.sends_by_node.(node) <- c.sends_by_node.(node) + 1;
  c.sends_by_link.(link) <- c.sends_by_link.(link) + 1;
  if t.live then t.sink.Sink.on_send ~node ~port ~seq ~link ~cw:false

let consume t ~node ~port =
  t.backlog <- t.backlog - 1;
  let c = t.metrics in
  let i = (node * c.Metrics.ports) + port in
  c.consumes <- c.consumes + 1;
  c.consumed.(i) <- c.consumed.(i) + 1;
  if t.live then t.sink.Sink.on_consume ~node ~port

let make_api t v rng =
  (* The node's first link id, resolved once per api: its mailboxes
     and outgoing links are [base + p].  Ports are range-checked here
     because [base + p] alone would reach another node's links. *)
  let base = t.offsets.(v) in
  let degree = Gtopology.degree t.topo v in
  let recv p =
    if p < 0 || p >= degree then invalid_arg "Gnetwork.recv: bad port";
    let mb = t.mailboxes.(base + p) in
    if mb.Ring.len = 0 then None
    else begin
      let m = Ring.pop mb in
      consume t ~node:v ~port:p;
      if t.logging then ulog_consume t.ulog p m;
      Some m
    end
  in
  let pending p =
    if p < 0 || p >= degree then invalid_arg "Gnetwork.pending: bad port";
    t.mailboxes.(base + p).Ring.len
  in
  let send p m =
    if t.term.(v) then failwith "Gnetwork: send after terminate";
    if p < 0 || p >= degree then invalid_arg "Gnetwork.send: bad port";
    enqueue t ~link:(base + p) ~node:v ~port:p m
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
  { node = v; degree; recv; pending; send; set_output; terminate; rng }

let max_degree topo =
  let d = ref 1 in
  for v = 0 to Gtopology.n topo - 1 do
    if Gtopology.degree topo v > !d then d := Gtopology.degree topo v
  done;
  !d

let create ?(sink = Sink.null) ?(seed = 0) topo make_program =
  let n = Gtopology.n topo in
  let links = Gtopology.num_links topo in
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
      channels = Array.init links (fun _ -> Envq.create ());
      mailboxes = Array.init links (fun _ -> Ring.create ());
      dst_node = Array.init links (fun l -> fst (Gtopology.link_dst topo l));
      dst_port = Array.init links (fun l -> snd (Gtopology.link_dst topo l));
      offsets = Array.init n (Gtopology.first_link topo);
      outputs = Array.make n Output.empty;
      term = Array.make n false;
      term_order_rev = [];
      metrics =
        Metrics.create ~ports_per_node:(max_degree topo) ~n_nodes:n
          ~n_links:links ();
      sink;
      live = not (sink == Sink.null);
      observed = sink.Sink.enabled;
      next_seq = 0;
      next_batch = 0;
      in_flight = 0;
      backlog = 0;
      nonempty = Array.make links 0;
      link_pos = Array.make links (-1);
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
  (* Schedulers only ask about links in the non-empty set, so the head
     stamps are read in place. *)
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
      (* General graphs have no global direction; direction-biased
         schedulers degrade gracefully on [None]. *)
      travels_cw = (fun _ -> None);
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
  if q.Envq.len = 0 then invalid_arg "Gnetwork: delivery from an empty link";
  let seq = q.Envq.meta.(3 * q.Envq.head) in
  let payload = Envq.pop q in
  unmark_if_empty t link;
  t.in_flight <- t.in_flight - 1;
  let dst = t.dst_node.(link) in
  let port = t.dst_port.(link) in
  let c = t.metrics in
  if t.term.(dst) then begin
    c.post_term <- c.post_term + 1;
    if t.live then t.sink.Sink.on_drop ~node:dst ~port ~seq
  end
  else begin
    let i = (dst * c.Metrics.ports) + port in
    c.deliveries <- c.deliveries + 1;
    c.delivered.(i) <- c.delivered.(i) + 1;
    if t.live then t.sink.Sink.on_deliver ~node:dst ~port ~seq;
    Ring.push t.mailboxes.(t.offsets.(dst) + port) payload;
    t.backlog <- t.backlog + 1;
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

let force_step t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Gnetwork.force_step: empty link";
  deliver_from t link

(* ------------------------------------------------------------------ *)
(* Incremental undo — the ring engine's scheme without ring-only
   clocks; see Network.force_step_undo for the full commentary. *)

type 'm undo = {
  u_link : int;
  u_payload : 'm;
  u_seq : int;
  u_batch : int;
  u_dst : int;
  u_dst_port : int;
  u_dropped : bool;
  u_prev_output : Output.t;
  u_became_term : bool;
  u_prev_next_seq : int;
  u_prev_next_batch : int;
  u_snap : int array;
  u_consumed_ports : int array;
  u_consumed_payloads : 'm array;
  u_sent_links : int array;
}

let undo_capable t = t.undo_ok

let force_step_undo t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Gnetwork.force_step_undo: empty link";
  if not t.undo_ok then
    invalid_arg "Gnetwork.force_step_undo: network is not undo-capable";
  let q = t.channels.(link) in
  let u_seq = Envq.head_seq q in
  let u_batch = Envq.head_batch q in
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
    u_dst = dst;
    u_dst_port = t.dst_port.(link);
    u_dropped = dropped;
    u_prev_output;
    u_became_term = (not dropped) && t.term.(dst);
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
    for i = Array.length u.u_sent_links - 1 downto 0 do
      let l = u.u_sent_links.(i) in
      ignore (Envq.pop_back t.channels.(l));
      unmark_if_empty t l;
      t.in_flight <- t.in_flight - 1;
      Metrics.undo_send t.metrics ~link:l ~node:dst ~cw:false
    done;
    for i = Array.length u.u_consumed_ports - 1 downto 0 do
      let p = u.u_consumed_ports.(i) in
      Ring.push_front
        t.mailboxes.(t.offsets.(dst) + p)
        u.u_consumed_payloads.(i);
      t.backlog <- t.backlog + 1;
      Metrics.undo_consume t.metrics ~node:dst ~port_index:p
    done;
    ignore (Ring.pop_back t.mailboxes.(t.offsets.(dst) + u.u_dst_port));
    t.backlog <- t.backlog - 1;
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
    t.next_seq <- u.u_prev_next_seq;
    t.next_batch <- u.u_prev_next_batch
  end;
  Envq.push_front t.channels.(u.u_link) u.u_payload ~seq:u.u_seq
    ~batch:u.u_batch ~depth:0;
  mark_nonempty t u.u_link;
  t.in_flight <- t.in_flight + 1

let enabled_count t = t.nonempty_count

let rec enabled_scan t link i best =
  if i >= t.nonempty_count then best
  else
    let l = t.nonempty.(i) in
    if l > link && (best < 0 || l < best) then enabled_scan t link (i + 1) l
    else enabled_scan t link (i + 1) best

let enabled_link t ~after = enabled_scan t after 0 (-1)
let channel_length t ~link = Envq.length t.channels.(link)

let mailbox_length t ~node ~port =
  Ring.length t.mailboxes.(Gtopology.link_id t.topo ~node ~port)

let channel_payloads t ~link = Envq.to_payload_array t.channels.(link)

let mailbox_payloads t ~node ~port =
  Ring.to_array t.mailboxes.(Gtopology.link_id t.topo ~node ~port)

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
let mailbox_backlog t = t.backlog
let is_quiescent t = t.in_flight = 0 && t.backlog = 0

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

let topology t = t.topo
let size t = Gtopology.n t.topo
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
let sends (t : _ t) = Metrics.sends t.metrics

let post_termination_deliveries (t : _ t) =
  Metrics.post_termination_deliveries t.metrics

let num_links topo = Gtopology.num_links topo
let link_dst_node topo link = fst (Gtopology.link_dst topo link)

(* Same canonical shape as [Network.fingerprint], generalised to
   arbitrary degree: channel depths, per-port mailbox depths,
   termination flag, output, inspect counters. *)
let fingerprint t =
  let buf = Buffer.create 128 in
  let n = size t in
  for link = 0 to Gtopology.num_links t.topo - 1 do
    Output.add_int buf (channel_length t ~link);
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf '|';
  for v = 0 to n - 1 do
    for p = 0 to Gtopology.degree t.topo v - 1 do
      if p > 0 then Buffer.add_char buf ':';
      Output.add_int buf (mailbox_length t ~node:v ~port:p)
    done;
    Buffer.add_char buf ';';
    Buffer.add_string buf (if terminated t v then "T" else "t");
    Output.add_compact buf (output t v);
    (* Program state via [inspect], as in [Network.fingerprint]:
       comparable across implementation variants that share counter
       names but differ in internal (snapshot) layout. *)
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
