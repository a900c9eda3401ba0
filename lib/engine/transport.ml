(* The backend-independent half of the transport abstraction: fault
   models, the jittered adversary, schedule recording, and the
   reference (simulator) backend.  The concurrent backends — one OCaml
   domain per node, one Unix process per node — live in
   [Colring_transport]; they depend on unix and must stay out of the
   engine library.  Everything here is deterministic and
   dependency-free. *)

type fault = { latency : int; jitter : int }

type faults = {
  fseed : int;
  default : fault;
  per_link : (int * fault) list;
}

let zero_fault = { latency = 0; jitter = 0 }
let no_fault = { fseed = 0; default = zero_fault; per_link = [] }

let check_fault what f =
  if f.latency < 0 then invalid_arg ("Transport.faults: negative " ^ what ^ " latency");
  if f.jitter < 0 then invalid_arg ("Transport.faults: negative " ^ what ^ " jitter")

let faults ?(seed = 0) ?(per_link = []) ~latency ~jitter () =
  let t = { fseed = seed; default = { latency; jitter }; per_link } in
  check_fault "default" t.default;
  List.iter (fun (_, f) -> check_fault "per-link" f) per_link;
  t

let is_pure t =
  let zero f = f.latency = 0 && f.jitter = 0 in
  zero t.default && List.for_all (fun (_, f) -> zero f) t.per_link

(* Per-link fault lookup without [List.assoc] (no option allocation on
   the miss path, monomorphic comparison). *)
let rec fault_scan per_link link default =
  match per_link with
  | [] -> default
  | (l, f) :: rest ->
      if Int.equal l link then f else fault_scan rest link default

let fault_of t ~link = fault_scan t.per_link link t.default

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
  let f = fault_scan t.per_link link t.default in
  if f.jitter = 0 then f.latency
  else
    f.latency
    + mix (t.fseed + (link * 0x9E3779B9) + (k * 0x85EBCA77)) mod (f.jitter + 1)

(* The jittered adversary: each pulse's virtual arrival time is its
   global send sequence number (one abstract time unit per send) plus
   its per-link delay draw; earliest arrival is delivered first, ties
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
      Printf.sprintf "jittered(seed=%d,lat=%d,jit=%d)" t.fseed
        t.default.latency t.default.jitter;
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
  let recv_pulse p =
    let i = Port.index p in
    if mailbox.(i) = 0 then false
    else begin
      mailbox.(i) <- mailbox.(i) - 1;
      true
    end
  in
  let pulse_if b = if b then Some Network.pulse else None in
  {
    Network.node;
    recv = (fun p -> pulse_if (recv_pulse p));
    recv_pulse;
    peek = (fun p -> pulse_if (mailbox.(Port.index p) > 0));
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
