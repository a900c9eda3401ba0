module Rng = Colring_stats.Rng

type topology = Topology.t

type 'm api = {
  node : int;
  degree : int;
  recv : int -> 'm option;
  recv_pulse : int -> bool;
  mailbox : int array;
  send : int -> 'm -> unit;
  set_output : Output.t -> unit;
  terminate : unit -> unit;
  rng : unit -> Rng.t;
}

type state =
  | Regs of { names : string array; cells : int array }
  | Opaque of (unit -> (string * int) list)

type 'm program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  state : state;
}

let counters = function
  | Regs { names; cells } ->
      List.init (Array.length names) (fun i -> (names.(i), cells.(i)))
  | Opaque f -> f ()

let silent_program =
  {
    start = (fun _ -> ());
    wake = (fun _ -> ());
    state = Regs { names = [||]; cells = [||] };
  }

type pulse = unit

type _ carry = Pulses : pulse carry | Payloads : 'm carry

(* A channel's envelopes as stamps only, in one flat [int array]:
   slot 0 is the head index, slot 1 the length, and the stride-3
   stamps (seq, batch, depth) of a circular buffer follow from slot 2.
   Capacity (the number of stamp triples) is 0 or a power of two,
   doubled on overflow; a queue that grows is a fresh array, which
   [stamps_room] stores back into the channel table.  Every network
   keeps one per link; a pulse carries nothing else, so on a pulse
   network this is the whole channel. *)
let stamps_create () = [| 0; 0 |]

let stamps_grow q =
  let cap = (Array.length q - 2) / 3 in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let g = Array.make (2 + (3 * ncap)) 0 in
  let head = q.(0) in
  let len = q.(1) in
  for i = 0 to len - 1 do
    let s = 2 + (3 * ((head + i) land (cap - 1))) in
    let d = 2 + (3 * i) in
    g.(d) <- q.(s);
    g.(d + 1) <- q.(s + 1);
    g.(d + 2) <- q.(s + 2)
  done;
  g.(1) <- len;
  g

(* Link [link]'s queue, grown (and replaced in [chans]) if full. *)
let[@inline] stamps_room chans link =
  let q = chans.(link) in
  if Int.equal (2 + (3 * q.(1))) (Array.length q) then begin
    let g = stamps_grow q in
    chans.(link) <- g;
    g
  end
  else q

let[@inline] stamps_push chans link ~seq ~batch ~depth =
  let q = stamps_room chans link in
  let len = q.(1) in
  let s = 2 + (3 * ((q.(0) + len) land (((Array.length q - 2) / 3) - 1))) in
  q.(s) <- seq;
  q.(s + 1) <- batch;
  q.(s + 2) <- depth;
  q.(1) <- len + 1

(* Callers check non-emptiness: the head stamps are read in place at
   [q.(2 + 3 * q.(0))], [+ 1] and [+ 2] before the pop. *)
let[@inline] stamps_pop q =
  q.(0) <- (q.(0) + 1) land (((Array.length q - 2) / 3) - 1);
  q.(1) <- q.(1) - 1

(* The deque half exists for incremental undo: [stamps_push_front]
   re-files a delivered head envelope with its original stamps and
   [stamps_pop_back] retracts the newest send. *)
let stamps_push_front chans link ~seq ~batch ~depth =
  let q = stamps_room chans link in
  let cap = (Array.length q - 2) / 3 in
  let head = (q.(0) + cap - 1) land (cap - 1) in
  q.(0) <- head;
  let s = 2 + (3 * head) in
  q.(s) <- seq;
  q.(s + 1) <- batch;
  q.(s + 2) <- depth;
  q.(1) <- q.(1) + 1

let stamps_pop_back q = q.(1) <- q.(1) - 1

(* A payload network's payloads, one slab per channel and one per
   mailbox, moving in lockstep with the stamps and counts.  Popped
   slots are cleared with the first payload ever pushed (kept in
   [filler]), so a slab retains at most that one value beyond its live
   contents and clearing is a plain store. *)
type 'a slab = {
  mutable elems : 'a array; (* length is 0 or a power of two *)
  mutable first : int;
  mutable size : int;
  mutable filler : 'a array;
}

let slab_create () = { elems = [||]; first = 0; size = 0; filler = [||] }

(* [x] doubles as the fill element of the fresh array, so growth works
   for any payload type without a dummy value. *)
let slab_grow b x =
  let cap = Array.length b.elems in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let elems = Array.make ncap x in
  if Array.length b.filler = 0 then b.filler <- Array.make 1 x;
  for i = 0 to b.size - 1 do
    elems.(i) <- b.elems.((b.first + i) land (cap - 1))
  done;
  b.elems <- elems;
  b.first <- 0

let slab_push b x =
  if Int.equal b.size (Array.length b.elems) then slab_grow b x;
  b.elems.((b.first + b.size) land (Array.length b.elems - 1)) <- x;
  b.size <- b.size + 1

let slab_pop b =
  let x = b.elems.(b.first) in
  b.elems.(b.first) <- b.filler.(0);
  b.first <- (b.first + 1) land (Array.length b.elems - 1);
  b.size <- b.size - 1;
  x

let slab_peek b = b.elems.(b.first)

let slab_push_front b x =
  if Int.equal b.size (Array.length b.elems) then slab_grow b x;
  let cap = Array.length b.elems in
  b.first <- (b.first + cap - 1) land (cap - 1);
  b.elems.(b.first) <- x;
  b.size <- b.size + 1

let slab_pop_back b =
  let s = (b.first + b.size - 1) land (Array.length b.elems - 1) in
  let x = b.elems.(s) in
  b.elems.(s) <- b.filler.(0);
  b.size <- b.size - 1;
  x

let slab_to_array b =
  Array.init b.size (fun i ->
      b.elems.((b.first + i) land (Array.length b.elems - 1)))

(* Per-step journal scratch for [force_step_undo]: the wake's consumed
   ports (and, on a payload network, payloads) and sent links, in
   order.  One per network, reused across steps; arrays grow by
   doubling and are copied out into each undo record. *)
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
    Array.append a (Array.make (Int.max 8 len) 0)
  else a

let ulog_send g link =
  g.slinks <- grow_ints g.slinks g.slen;
  g.slinks.(g.slen) <- link;
  g.slen <- g.slen + 1

let ulog_consume g port =
  g.cports <- grow_ints g.cports g.clen;
  g.cports.(g.clen) <- port;
  g.clen <- g.clen + 1

(* The payload of the consume [ulog_consume] just journalled. *)
let ulog_payload g m =
  let i = g.clen - 1 in
  if i >= Array.length g.cpayloads then
    g.cpayloads <- Array.append g.cpayloads (Array.make (Int.max 8 (i + 1)) m);
  g.cpayloads.(i) <- m

(* One engine for rings and graphs alike.  ['topo] is the topology the
   caller passed in; the engine itself only reads the flat link tables
   [create] derives from it. *)
type ('m, 'topo) core = {
  topo : 'topo;
  programs : 'm program array;
  mutable apis : 'm api array;
  (* What a pulse carries, fixed at creation.  Every network keeps the
     stamp queues and mailbox counts below; only [Payloads] networks
     fill [chan_pl]/[box_pl] (empty arrays otherwise). *)
  carry : 'm carry;
  chans : int array array; (* by link id; see [stamps_create] *)
  (* Node [v]'s mailbox counts by port, its api's [mailbox].  Its port
     [p] sends on link [first_link.(v) + p] (on a ring, [2v + p]), which
     also indexes that mailbox's payload slab in [box_pl]. *)
  boxes : int array array; (* by node *)
  chan_pl : 'm slab array;
  box_pl : 'm slab array;
  (* Per-link tables: the receiving node and port, and the direction
     (1 = cw and 0 = ccw on a ring, -1 on a graph, which has no global
     direction); per node: the first link id. *)
  dst_node : int array;
  dst_port : int array;
  dir : int array;
  first_link : int array;
  outputs : Output.t array;
  term : bool array;
  mutable term_order_rev : int list;
  (* The run's seed and node [v]'s private stream, split from it the
     first time [v]'s program reads [api.rng] ([None] until then). *)
  mutable seed : int;
  streams : Rng.t option array;
  (* The engine's own counters, written inline on the delivery path
     (the same updates {!Sink.counters} makes through [Metrics.on_*]). *)
  metrics : Metrics.t;
  (* The caller's sink, called directly after the counters move.
     [live] is [not (sink == Sink.null)]: every per-event callback
     sits behind it, so the default path makes no sink call at all,
     while a non-null sink sees every event even when it is not
     [enabled].  [observed] is [sink.enabled], the guard for records
     that must allocate their payload (snapshots).  All three change
     only at a warm [reset]. *)
  mutable sink : Sink.t;
  mutable live : bool;
  mutable observed : bool;
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
     [undo_ok] is fixed per run (at creation or [reset]) — every
     program must keep its state in [Regs] cells and no user sink may
     observe the run, since emitted events cannot be unemitted. *)
  ulog : 'm ulog;
  mutable logging : bool;
  mutable undo_ok : bool;
}

type 'm t = ('m, Topology.t) core

(* ------------------------------------------------------------------ *)
(* Hot path: the per-delivery functions below are registered in
   tools/lint/hot.sexp.  Dune's dev profile compiles with [-opaque],
   so no call into another module is ever inlined, and ocamlopt
   without flambda inlines only tiny functions of its own module
   unless told to: every helper on the delivery path carries
   [[@inline]], so [deliver_from] and the api closures are straight
   lines.  The only indirect calls left per delivery are the
   scheduler's [pick], the program's [wake] and the api closures it
   calls (a poll of an empty port reads [api.mailbox] and calls
   nothing); counters are inline stores, link lookups are table reads
   and queue stamps are read in place.  The api constructor lives here
   for the same reason: its closures inline [check_port], [enqueue]
   and [take].  The [carry] match is the one place a payload network
   differs: a pulse network moves integers only. *)

let[@inline] is_cw t link = t.dir.(link) = 1

(* The one [Some] a pulse network's [recv] ever returns, and the two a
   ring's scheduler view reports as directions. *)
let some_pulse = Some ()
let some_cw = Some true
let some_ccw = Some false

let[@inline] mark_nonempty t link =
  if t.link_pos.(link) < 0 then begin
    t.nonempty.(t.nonempty_count) <- link;
    t.link_pos.(link) <- t.nonempty_count;
    t.nonempty_count <- t.nonempty_count + 1
  end

let[@inline] unmark_if_empty t link =
  if t.chans.(link).(1) = 0 then begin
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
let[@inline] enqueue (type m) (t : (m, _) core) ~link ~node ~port (m : m) =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  mark_nonempty t link;
  stamps_push t.chans link ~seq ~batch:t.next_batch
    ~depth:(t.local_clock.(node) + 1);
  (match t.carry with Pulses -> () | Payloads -> slab_push t.chan_pl.(link) m);
  t.in_flight <- t.in_flight + 1;
  let c = t.metrics in
  let cw = is_cw t link in
  c.sends <- c.sends + 1;
  if cw then c.sends_cw <- c.sends_cw + 1;
  if t.logging then ulog_send t.ulog link;
  if t.live then t.sink.Sink.on_send ~node ~port ~seq ~link ~cw

(* The wake's side of a mailbox read: take the oldest entry of node
   [node]'s mailbox at [port] (counts [box], known non-empty), count it
   and journal it for undo. *)
let[@inline] take (type m) (t : (m, _) core) ~node ~port box : m =
  box.(port) <- box.(port) - 1;
  t.mailbox_backlog <- t.mailbox_backlog - 1;
  let c = t.metrics in
  c.consumes <- c.consumes + 1;
  if t.live then t.sink.Sink.on_consume ~node ~port;
  if t.logging then ulog_consume t.ulog port;
  match t.carry with
  | Pulses -> ()
  | Payloads ->
      let m = slab_pop t.box_pl.(t.first_link.(node) + port) in
      if t.logging then ulog_payload t.ulog m;
      m

(* [take] behind a [recv]: [None] on an empty mailbox, and on a pulse
   network the shared [some_pulse] instead of a fresh [Some ()]. *)
let[@inline] recv_at (type m) (t : (m, _) core) ~node ~port box :
    m option =
  if box.(port) = 0 then None
  else
    let m = take t ~node ~port box in
    match t.carry with Pulses -> some_pulse | Payloads -> Some m

let decide t v o =
  if not (Output.equal t.outputs.(v) o) then begin
    t.outputs.(v) <- o;
    if t.live then t.sink.Sink.on_decide ~node:v ~output:o
  end

let halt t v =
  if not t.term.(v) then begin
    t.term.(v) <- true;
    t.term_order_rev <- v :: t.term_order_rev;
    if t.live then t.sink.Sink.on_terminate ~node:v
  end

let node_stream ~seed v = Rng.split_at (Rng.create ~seed) v

let node_rng t v =
  match t.streams.(v) with
  | Some r -> r
  | None ->
      let r = node_stream ~seed:t.seed v in
      t.streams.(v) <- Some r;
      r

(* The one port check of every api record, the live backends' too: a
   port outside [0, degree) would index another node's links from
   [first_link.(v) + p].  The inlined check ends in [raise] (as does
   [send]'s terminated check), so no value of the caller stays live
   across the cold call and the hot path spills nothing for it. *)
let bad_port fn ~node ~degree p =
  Invalid_argument
    (Printf.sprintf "%s: node %d has no port %d (degree %d)" fn node p degree)

let[@inline] check_port fn ~node ~degree p =
  if p < 0 || p >= degree then raise (bad_port fn ~node ~degree p)

let api (type m) (t : (m, _) core) node : m api =
  (* [l0] and the node's counts are resolved once per api, not per
     call; payload slabs, off the pulse path, index from [first_link]. *)
  let l0 = t.first_link.(node) in
  let mailbox = t.boxes.(node) in
  let degree = Array.length mailbox in
  let recv p =
    check_port "Network.recv" ~node ~degree p;
    recv_at t ~node ~port:p mailbox
  in
  let recv_pulse p =
    check_port "Network.recv_pulse" ~node ~degree p;
    if mailbox.(p) = 0 then false
    else begin
      ignore (take t ~node ~port:p mailbox : m);
      true
    end
  in
  let send p m =
    if t.term.(node) then raise (Failure "Network: send after terminate");
    check_port "Network.send" ~node ~degree p;
    enqueue t ~link:(l0 + p) ~node ~port:p m
  in
  let set_output o = decide t node o in
  let terminate () = halt t node in
  let rng () = node_rng t node in
  { node; degree; recv; recv_pulse; mailbox; send; set_output; terminate; rng }

let slabs (type m) (carry : m carry) links : m slab array =
  match carry with
  | Pulses -> [||]
  | Payloads -> Array.init links (fun _ -> slab_create ())

let undo_ok_for (sink : Sink.t) programs =
  (not sink.enabled)
  && Array.for_all
       (fun p -> match p.state with Regs _ -> true | Opaque _ -> false)
       programs

(* The start-up activations, in node order: batch bump, wake, [start]. *)
let start_all t =
  for v = 0 to Array.length t.apis - 1 do
    t.next_batch <- t.next_batch + 1;
    t.metrics.Metrics.wakes <- t.metrics.Metrics.wakes + 1;
    if t.live then t.sink.Sink.on_wake ~node:v;
    t.programs.(v).start t.apis.(v)
  done

let make ~carry ?(sink = Sink.null) ?(seed = 0) topo ~dst_node ~dst_port
    ~dir ~first_link ~degree programs =
  let n = Array.length first_link in
  let links = Array.length dst_node in
  let undo_ok = undo_ok_for sink programs in
  let t =
    {
      topo;
      programs;
      apis = [||];
      carry;
      chans = Array.init links (fun _ -> stamps_create ());
      boxes = Array.map (fun d -> Array.make d 0) degree;
      chan_pl = slabs carry links;
      box_pl = slabs carry links;
      dst_node;
      dst_port;
      dir;
      first_link;
      outputs = Array.make n Output.empty;
      term = Array.make n false;
      term_order_rev = [];
      seed;
      streams = Array.make n None;
      metrics = Metrics.create ();
      sink;
      live = not (sink == Sink.null);
      observed = sink.Sink.enabled;
      next_seq = 0;
      next_batch = 0;
      in_flight = 0;
      mailbox_backlog = 0;
      local_clock = Array.make n 0;
      causal_span = 0;
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
          let q = t.chans.(link) in
          q.(2 + (3 * q.(0))));
      head_batch =
        (fun link ->
          let q = t.chans.(link) in
          q.(2 + (3 * q.(0)) + 1));
      travels_cw =
        (fun link ->
          match t.dir.(link) with 1 -> some_cw | 0 -> some_ccw | _ -> None);
      dst_node = (fun link -> t.dst_node.(link));
      step = 0;
    };
  t.apis <- Array.init n (api t);
  start_all t;
  t

let create_with ~carry ?sink ?seed topo make_program =
  Topology.check topo;
  let n = Topology.n topo in
  let links = Topology.num_links topo in
  let dst f = Array.init links (fun l -> f (Topology.link_dst topo l)) in
  make ~carry ?sink ?seed topo ~dst_node:(dst fst)
    ~dst_port:(dst (fun (_, p) -> Port.index p))
    ~dir:
      (Array.init links (fun l ->
           if Topology.link_travels_cw topo l then 1 else 0))
    ~first_link:(Array.init n (fun v -> Topology.link_id topo v Port.P0))
    ~degree:(Array.make n 2)
    (Array.init n make_program)

let create ?sink ?seed topo make_program =
  create_with ~carry:Pulses ?sink ?seed topo make_program

let create_graph ~carry ?sink ?seed topo ~dst_node ~dst_port ~first_link
    ~degree make_program =
  make ~carry ?sink ?seed topo ~dst_node ~dst_port
    ~dir:(Array.make (Array.length dst_node) (-1))
    ~first_link ~degree
    (Array.init (Array.length first_link) make_program)

let view t =
  let v = t.view in
  v.Scheduler.count <- t.nonempty_count;
  v.Scheduler.step <- t.metrics.Metrics.deliveries;
  v

let deliver_from (type m) (t : (m, _) core) link =
  let q = t.chans.(link) in
  if q.(1) = 0 then invalid_arg "Network: delivery from an empty link";
  let h = 2 + (3 * q.(0)) in
  let seq = q.(h) in
  let depth = q.(h + 2) in
  stamps_pop q;
  unmark_if_empty t link;
  t.in_flight <- t.in_flight - 1;
  let dst = t.dst_node.(link) in
  let port = t.dst_port.(link) in
  (match t.carry with
  | Pulses -> ()
  | Payloads ->
      let m : m = slab_pop t.chan_pl.(link) in
      if not t.term.(dst) then
        slab_push t.box_pl.(t.first_link.(dst) + port) m);
  let c = t.metrics in
  if t.term.(dst) then begin
    (* Terminated nodes ignore pulses; each such arrival is a
       violation of quiescent termination, which tests assert away. *)
    c.post_term <- c.post_term + 1;
    if t.live then t.sink.Sink.on_drop ~node:dst ~port ~seq
  end
  else begin
    c.deliveries <- c.deliveries + 1;
    if t.live then t.sink.Sink.on_deliver ~node:dst ~port ~seq;
    let box = t.boxes.(dst) in
    box.(port) <- box.(port) + 1;
    t.mailbox_backlog <- t.mailbox_backlog + 1;
    if depth > t.local_clock.(dst) then t.local_clock.(dst) <- depth;
    if depth > t.causal_span then t.causal_span <- depth;
    t.next_batch <- t.next_batch + 1;
    c.wakes <- c.wakes + 1;
    if t.live then t.sink.Sink.on_wake ~node:dst;
    t.programs.(dst).wake t.apis.(dst)
  end

(* ------------------------------------------------------------------ *)
(* Incremental undo.  One record per
   delivery: the delivered envelope's stamps (and payload), a copy of
   the destination's pre-wake register cells, its engine-side scalars,
   and the wake's journalled consume/send effects.  [undo_step]
   applies the inverses in reverse order, so a LIFO stack of records
   walks the network back along any prefix of the forced schedule. *)

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
  u_cells : int array; (* the destination's cells before the wake *)
  u_consumed_ports : int array;
  u_consumed_payloads : 'm array; (* empty on a pulse network *)
  u_sent_links : int array;
}

type run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}

(* ------------------------------------------------------------------ *)
(* Everything that reads only the core, whichever api and topology it
   was built for: rings use it through the [include] below and
   Colring_graph.Gnetwork includes it as well. *)

module Core = struct
  (* A warm core: every field [make] initialises per run goes back to
     its initial value — stamp queues and mailboxes empty (buffers keep
     their capacity), outputs, termination, counters, batch and sequence
     numbers, clocks, the non-empty-link set, the undo log and the node
     streams — then the new programs, sink and seed go in and the
     start-up activations run as in [make].  The link tables, api
     closures and scheduler view are kept. *)
  let reset ?(sink = Sink.null) ?(seed = 0) (t : (pulse, _) core)
      make_program =
    (match t.carry with
    | Pulses -> ()
    | Payloads -> invalid_arg "Network.reset: a payload network");
    let n = Array.length t.term in
    Array.iter
      (fun q ->
        q.(0) <- 0;
        q.(1) <- 0)
      t.chans;
    Array.iter (fun box -> Array.fill box 0 (Array.length box) 0) t.boxes;
    Array.fill t.outputs 0 n Output.empty;
    Array.fill t.term 0 n false;
    t.term_order_rev <- [];
    t.seed <- seed;
    Array.fill t.streams 0 n None;
    Metrics.reset t.metrics;
    t.next_seq <- 0;
    t.next_batch <- 0;
    t.in_flight <- 0;
    t.mailbox_backlog <- 0;
    Array.fill t.local_clock 0 n 0;
    t.causal_span <- 0;
    Array.fill t.link_pos 0 (Array.length t.link_pos) (-1);
    t.nonempty_count <- 0;
    t.ulog.clen <- 0;
    t.ulog.slen <- 0;
    t.logging <- false;
    t.sink <- sink;
    t.live <- not (sink == Sink.null);
    t.observed <- sink.Sink.enabled;
    for v = 0 to n - 1 do
      t.programs.(v) <- make_program v
    done;
    t.undo_ok <- undo_ok_for sink t.programs;
    start_all t

  let step t (sched : Scheduler.t) =
    if t.in_flight = 0 then false
    else begin
      deliver_from t (sched.pick (view t));
      true
    end

  let force_step t ~link =
    if t.chans.(link).(1) = 0 then
      invalid_arg "Network.force_step: empty link";
    deliver_from t link

  let undo_capable t = t.undo_ok

  let force_step_undo (type m) (t : (m, _) core) ~link : m undo =
    let q = t.chans.(link) in
    if q.(1) = 0 then invalid_arg "Network.force_step_undo: empty link";
    if not t.undo_ok then
      invalid_arg "Network.force_step_undo: network is not undo-capable";
    let h = 2 + (3 * q.(0)) in
    let u_seq = q.(h) in
    let u_batch = q.(h + 1) in
    let u_depth = q.(h + 2) in
    let u_payload : m =
      match t.carry with
      | Pulses -> ()
      | Payloads -> slab_peek t.chan_pl.(link)
    in
    let dst = t.dst_node.(link) in
    let dropped = t.term.(dst) in
    let u_cells =
      match t.programs.(dst).state with
      | Regs r when not dropped -> Array.copy r.cells
      | Regs _ -> [||]
      | Opaque _ -> assert false (* undo_ok *)
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
      u_cells;
      u_consumed_ports = Array.sub g.cports 0 g.clen;
      u_consumed_payloads =
        (match t.carry with
        | Pulses -> [||]
        | Payloads -> Array.sub g.cpayloads 0 g.clen);
      u_sent_links = Array.sub g.slinks 0 g.slen;
    }

  let undo_step (type m) (t : (m, _) core) (u : m undo) =
    let dst = u.u_dst in
    let c = t.metrics in
    if u.u_dropped then c.post_term <- c.post_term - 1
    else begin
      (* Retract the wake's sends, newest first. *)
      for i = Array.length u.u_sent_links - 1 downto 0 do
        let l = u.u_sent_links.(i) in
        stamps_pop_back t.chans.(l);
        (match t.carry with
        | Pulses -> ()
        | Payloads -> ignore (slab_pop_back t.chan_pl.(l) : m));
        unmark_if_empty t l;
        t.in_flight <- t.in_flight - 1;
        c.sends <- c.sends - 1;
        if is_cw t l then c.sends_cw <- c.sends_cw - 1
      done;
      (* Re-file the wake's consumed pulses, newest first: this restores
         the mailbox to its state just after the delivery added the
         incoming pulse at the tail... *)
      let base = t.first_link.(dst) in
      let box = t.boxes.(dst) in
      for i = Array.length u.u_consumed_ports - 1 downto 0 do
        let port = u.u_consumed_ports.(i) in
        box.(port) <- box.(port) + 1;
        (match t.carry with
        | Pulses -> ()
        | Payloads ->
            slab_push_front t.box_pl.(base + port) u.u_consumed_payloads.(i));
        t.mailbox_backlog <- t.mailbox_backlog + 1;
        c.consumes <- c.consumes - 1
      done;
      (* ... so removing that tail pulse retracts the delivery. *)
      let port = u.u_dst_port in
      box.(port) <- box.(port) - 1;
      (match t.carry with
      | Pulses -> ()
      | Payloads -> ignore (slab_pop_back t.box_pl.(base + port) : m));
      t.mailbox_backlog <- t.mailbox_backlog - 1;
      c.deliveries <- c.deliveries - 1;
      c.wakes <- c.wakes - 1;
      (match t.programs.(dst).state with
      | Regs r -> Array.blit u.u_cells 0 r.cells 0 (Array.length r.cells)
      | Opaque _ -> assert false);
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
    stamps_push_front t.chans u.u_link ~seq:u.u_seq ~batch:u.u_batch
      ~depth:u.u_depth;
    (match t.carry with
    | Pulses -> ()
    | Payloads -> slab_push_front t.chan_pl.(u.u_link) u.u_payload);
    mark_nonempty t u.u_link;
    t.in_flight <- t.in_flight + 1

  let enabled_count t = t.nonempty_count

  (* Smallest non-empty link strictly greater than [link], by scanning
     the unordered non-empty buffer; -1 when none.  Written as a
     module-level tail recursion over immediate arguments so an enumeration
     of the enabled set allocates nothing (the model checker calls this
     in its innermost loop). *)
  let rec enabled_scan t link i best =
    if i >= t.nonempty_count then best
    else
      let l = t.nonempty.(i) in
      if l > link && (best < 0 || l < best) then enabled_scan t link (i + 1) l
      else enabled_scan t link (i + 1) best

  let enabled_link t ~after = enabled_scan t after 0 (-1)
  let channel_length t ~link = t.chans.(link).(1)

  let channel_payloads (type m) (t : (m, _) core) ~link : m array =
    match t.carry with
    | Pulses -> Array.make t.chans.(link).(1) ()
    | Payloads -> slab_to_array t.chan_pl.(link)

  let all_terminated t = Array.for_all Fun.id t.term
  let in_flight t = t.in_flight
  let mailbox_backlog t = t.mailbox_backlog
  let is_quiescent t = t.in_flight = 0 && t.mailbox_backlog = 0

  let run ?(max_deliveries = 50_000_000) ?(snapshot_every = 0) ?probe t
      sched =
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
  let size t = Array.length t.term
  let num_links t = Array.length t.dst_node
  let link_dst_node t link = t.dst_node.(link)
  let output t v = t.outputs.(v)
  let outputs t = Array.copy t.outputs
  let terminated t v = t.term.(v)
  let termination_order t = List.rev t.term_order_rev
  let inspect t v = counters t.programs.(v).state

  let inspect_counter t v name =
    match List.assoc_opt name (inspect t v) with
    | Some x -> x
    | None -> raise Not_found

  let registers t v =
    match t.programs.(v).state with
    | Regs r -> Some (Array.copy r.cells)
    | Opaque _ -> None

  let metrics t = t.metrics
  let trace t = Sink.trace t.sink

  (* Canonical observable-state string: the model checker's dedup key
     and the tests' state comparisons.  Covers channel depths,
     per-port mailbox depths, termination flags, outputs and each
     program's view — everything a monitor can see. *)
  let add_counter buf k x =
    Buffer.add_string buf k;
    Buffer.add_char buf '=';
    Output.add_int buf x;
    Buffer.add_char buf ' '

  let fingerprint t =
    let buf = Buffer.create 128 in
    for link = 0 to Array.length t.chans - 1 do
      Output.add_int buf (channel_length t ~link);
      Buffer.add_char buf ','
    done;
    Buffer.add_char buf '|';
    for v = 0 to size t - 1 do
      let box = t.boxes.(v) in
      for p = 0 to Array.length box - 1 do
        if p > 0 then Buffer.add_char buf ':';
        Output.add_int buf box.(p)
      done;
      Buffer.add_char buf ';';
      Buffer.add_string buf (if terminated t v then "T" else "t");
      Output.add_compact buf (output t v);
      (* Program state via the view only, NOT the hidden cells:
         fingerprints must agree across implementation variants that
         share a view but differ in internal layout (e.g. the two
         Algorithm 2 engines in the differential tests).  The key
         determines the hidden cells too (test_mc's "key determines
         every register"). *)
      (match t.programs.(v).state with
      | Regs { names; cells } ->
          for i = 0 to Array.length names - 1 do
            add_counter buf names.(i) cells.(i)
          done
      | Opaque f -> List.iter (fun (k, x) -> add_counter buf k x) (f ()));
      Buffer.add_char buf '|'
    done;
    Buffer.contents buf

  let mailbox_length t ~node ~port = t.boxes.(node).(port)

  let mailbox_payloads (type m) (t : (m, _) core) ~node ~port : m array =
    check_port "Network.mailbox_payloads" ~node
      ~degree:(Array.length t.boxes.(node)) port;
    match t.carry with
    | Pulses -> Array.make (mailbox_length t ~node ~port) ()
    | Payloads -> slab_to_array t.box_pl.(t.first_link.(node) + port)

  let inject t ~node ~port m =
    check_port "Network.inject" ~node ~degree:(Array.length t.boxes.(node)) port;
    enqueue t ~link:(t.first_link.(node) + port) ~node ~port m
end

include Core

let pulse = ()
