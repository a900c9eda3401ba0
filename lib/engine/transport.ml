(* The backend-independent half of the transport abstraction: fault
   models, the jittered adversary, schedule recording, and the
   reference (simulator) backend.  The concurrent backends — one OCaml
   domain per node, one Unix process per node — live in
   [Colring_transport]; they depend on unix and must stay out of the
   engine library.  Everything here is deterministic and
   dependency-free. *)

type faults = { fseed : int; latency : int; jitter : int }

let no_fault = { fseed = 0; latency = 0; jitter = 0 }

let faults ?(seed = 0) ~latency ~jitter () =
  if latency < 0 then invalid_arg "Transport.faults: negative latency";
  if jitter < 0 then invalid_arg "Transport.faults: negative jitter";
  { fseed = seed; latency; jitter }

let is_pure t = t.latency = 0 && t.jitter = 0

(* SplitMix-style avalanche mixer on native ints (constants fit 63
   bits; multiplication wraps, which is exactly what a finalizer
   wants).  Boxing-free — [Int64] ops would allocate per draw. *)
let mix z =
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 32)) * 0x1A85EC53 in
  (z lxor (z lsr 29)) land max_int

(* The jitter draw for the [k]-th pulse on [link]: latency plus a
   uniform-ish hash of (seed, link, k) in [0, jitter].  A pure function
   of its arguments, so every backend — and a replay — draws the same
   delay for the same pulse. *)
let delay_us t ~link ~k =
  if t.jitter = 0 then t.latency
  else
    t.latency
    + mix (t.fseed + (link * 0x9E3779B9) + (k * 0x85EBCA77)) mod (t.jitter + 1)

(* The jittered adversary: each pulse's virtual arrival time is its
   global send sequence number (one abstract time unit per send) plus
   its delay draw; earliest arrival is delivered first, ties
   broken by send order.  On the simulator the fault layer is *this
   scheduler* — delays never touch the engine. *)
let rec jit_scan t v i best bkey bseq =
  if i >= v.Scheduler.count then best
  else begin
    let l = v.Scheduler.nonempty.(i) in
    let s = v.Scheduler.head_seq l in
    let key = s + delay_us t ~link:l ~k:s in
    if key < bkey || (Int.equal key bkey && s < bseq) then
      jit_scan t v (i + 1) l key s
    else jit_scan t v (i + 1) best bkey bseq
  end

let jittered t =
  {
    Scheduler.name =
      Printf.sprintf "jittered(seed=%d,lat=%d,jit=%d)" t.fseed t.latency
        t.jitter;
    pick =
      (fun v ->
        let l0 = v.Scheduler.nonempty.(0) in
        let s0 = v.Scheduler.head_seq l0 in
        jit_scan t v 1 l0 (s0 + delay_us t ~link:l0 ~k:s0) s0);
  }

(* --------------------------------------------------------------- *)
(* Schedule recording *)

type recorder = { mutable buf : int array; mutable len : int }

let recorder () = { buf = Array.make 64 0; len = 0 }

let record r link =
  (if Int.equal r.len (Array.length r.buf) then begin
     let b = Array.make (2 * r.len) 0 in
     Array.blit r.buf 0 b 0 r.len;
     r.buf <- b
   end);
  r.buf.(r.len) <- link;
  r.len <- r.len + 1

let recorded r = Array.sub r.buf 0 r.len

let recording (sched : Scheduler.t) =
  let r = recorder () in
  ( {
      Scheduler.name = sched.Scheduler.name;
      pick =
        (fun v ->
          let l = sched.Scheduler.pick v in
          record r l;
          l);
    },
    fun () -> recorded r )

(* --------------------------------------------------------------- *)
(* Backends *)

type trace = {
  backend : string;
  scheduler : string;
  n : int;
  schedule : int array;
  outputs : Output.t array;
  sends : int;
  deliveries : int;
  drops : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}

type t = {
  name : string;
  run :
    ?seed:int ->
    ?max_deliveries:int ->
    ?faults:faults ->
    Topology.t ->
    (int -> Network.pulse Network.program) ->
    trace;
}

let trace_of_net ~backend ~scheduler ~schedule net (r : Network.run_result) =
  let m = Network.metrics net in
  {
    backend;
    scheduler;
    n = Network.size net;
    schedule;
    outputs = Network.outputs net;
    sends = r.Network.sends;
    deliveries = r.Network.deliveries;
    drops = Metrics.post_termination_deliveries m;
    quiescent = r.Network.quiescent;
    all_terminated = r.Network.all_terminated;
    exhausted = r.Network.exhausted;
    termination_order = r.Network.termination_order;
  }

let mailbox_api ~node ~seed ~mailbox ~send ~set_output ~terminate =
  let rng = lazy (Network.node_stream ~seed node) in
  let degree = Array.length mailbox in
  let take fn p =
    Network.check_port fn ~node ~degree p;
    mailbox.(p) > 0
    && begin
         mailbox.(p) <- mailbox.(p) - 1;
         true
       end
  in
  let recv_pulse p = take "Transport.recv_pulse" p in
  let recv p = if take "Transport.recv" p then Some Network.pulse else None in
  let send p m =
    Network.check_port "Transport.send" ~node ~degree p;
    send p m
  in
  {
    Network.node;
    degree;
    recv;
    recv_pulse;
    mailbox;
    send;
    set_output;
    terminate;
    rng = (fun () -> Lazy.force rng);
  }

let sim ?(sched = Scheduler.fifo) () =
  {
    name = "sim";
    run =
      (fun ?(seed = 0) ?max_deliveries ?(faults = no_fault) topo make_program ->
        (* With live faults the adversary *is* the fault model; the
           caller's scheduler only applies to the fault-free case. *)
        let base = if is_pure faults then sched else jittered faults in
        let recorder, recorded = recording base in
        let net = Network.create ~seed topo make_program in
        let r = Network.run ?max_deliveries net recorder in
        trace_of_net ~backend:"sim" ~scheduler:base.Scheduler.name
          ~schedule:(recorded ()) net r);
  }

let replay ?(seed = 0) trace topo make_program =
  let sched = Scheduler.of_schedule ~name:trace.scheduler trace.schedule in
  let net = Network.create ~seed topo make_program in
  let r = Network.run net sched in
  trace_of_net ~backend:trace.backend ~scheduler:trace.scheduler
    ~schedule:trace.schedule net r

let equivalent a b =
  Int.equal a.n b.n
  && Int.equal (Array.length a.outputs) (Array.length b.outputs)
  && Array.for_all2 Output.equal a.outputs b.outputs
  && Int.equal a.sends b.sends
  && Int.equal a.deliveries b.deliveries
  && Int.equal a.drops b.drops
  && Bool.equal a.quiescent b.quiescent
  && Bool.equal a.all_terminated b.all_terminated
  && List.equal Int.equal a.termination_order b.termination_order
  && Int.equal (Array.length a.schedule) (Array.length b.schedule)
  && Array.for_all2 Int.equal a.schedule b.schedule
