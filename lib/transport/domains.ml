(* Shared-memory transport: one OCaml domain per node, one atomic
   pulse counter per directed link.  The channel representation is the
   model made literal — pulses are indistinguishable, so a channel
   *is* its pulse count; sending is [Atomic.incr], delivering is a
   CAS-decrement by the (single) receiving domain.

   Replay honesty: every take appends its link id to a mutex-protected
   schedule, and the append happens after the send's increment, which
   happens during the sender's activation, which happens after that
   activation's own delivery was appended.  The mutex gives a total
   order consistent with that causality, so the recorded schedule
   always fits [Scheduler.of_schedule] on the simulator, and — nodes
   sharing no state — the per-node projection reproduces each node's
   behaviour exactly (same consumed-pulse sequences, same RNG stream
   derivation as [Network.create]).

   Quiescence detection is a single [live] counter: one token per
   pending start activation, plus one per pulse from its send until
   the delivery that consumed it has been fully processed (the token
   is handed from channel to activation at take time, so [live = 0]
   really means no activation can ever run again). *)

open Colring_engine

type shared = {
  topo : Topology.t;
  faults : Transport.faults;
  chan : int Atomic.t array; (* by link id: pulses in flight *)
  live : int Atomic.t;
  abort : bool Atomic.t;
  mutable exhausted : bool; (* under [lock] *)
  max_deliveries : int;
  lock : Mutex.t;
  sched : Transport.recorder;
  mutable deliveries : int; (* under [lock] *)
  mutable drops : int; (* under [lock] *)
  mutable terms_rev : (int * int) list; (* (activation tag, node) *)
  outputs : Output.t array; (* slot v written only by node v *)
  term : bool Atomic.t array;
  sends : int array; (* per node, owner-written *)
  backlog : int array; (* per node, owner-written at exit *)
}

(* Take one pulse off a channel.  The receiving domain is the only
   decrementer, so the CAS only ever retries against concurrent
   increments. *)
let rec try_take c =
  let v = Atomic.get c in
  if v = 0 then false
  else if Atomic.compare_and_set c v (v - 1) then true
  else begin
    (* A failed CAS means the sender just bumped the counter; yield
       the cache line before re-spinning. *)
    Domain.cpu_relax ();
    try_take c
  end

(* Append a delivery under the lock; [None] means the budget is spent
   (the caller puts the pulse back and aborts).  Budget counts proper
   deliveries, like the simulator's run loop. *)
let record_delivery sh ~link ~drop =
  Mutex.lock sh.lock;
  let r =
    if (not drop) && sh.deliveries >= sh.max_deliveries then begin
      sh.exhausted <- true;
      None
    end
    else begin
      let idx = sh.sched.Transport.len in
      Transport.record sh.sched link;
      if drop then sh.drops <- sh.drops + 1
      else sh.deliveries <- sh.deliveries + 1;
      Some idx
    end
  in
  Mutex.unlock sh.lock;
  r

let record_terminate sh ~tag ~node =
  Mutex.lock sh.lock;
  sh.terms_rev <- (tag, node) :: sh.terms_rev;
  Mutex.unlock sh.lock

let node_body sh make_program ~seed v =
  let n = Topology.n sh.topo in
  let program = make_program v in
  let mailbox = [| 0; 0 |] in
  (* Outgoing and incoming link of local port p: the link it sends on
     and the link its peer sends on. *)
  let out_link =
    Array.init 2 (fun p -> Topology.link_id sh.topo v (Port.of_index p))
  in
  let in_link =
    Array.init 2 (fun p ->
        let u, q = Topology.peer sh.topo v (Port.of_index p) in
        Topology.link_id sh.topo u q)
  in
  let consumed = [| 0; 0 |] in
  (* Tag of the running activation: starts sort as [v - n] (before
     every delivery, in node order — the simulator's start order),
     deliveries by schedule index. *)
  let tag = ref (v - n) in
  let terminated () = Atomic.get sh.term.(v) in
  let api =
    Transport.mailbox_api ~node:v ~seed ~mailbox
      ~send:(fun p () ->
        if terminated () then
          failwith "Transport.domains: send after terminate";
        let link = out_link.(p) in
        sh.sends.(v) <- sh.sends.(v) + 1;
        (* The pulse's [live] token: held until the delivery that
           consumes it finishes processing. *)
        Atomic.incr sh.live;
        Atomic.incr sh.chan.(link))
      ~set_output:(fun o -> sh.outputs.(v) <- o)
      ~terminate:(fun () ->
        if not (terminated ()) then begin
          Atomic.set sh.term.(v) true;
          record_terminate sh ~tag:!tag ~node:v
        end)
  in
  program.Network.start api;
  (* The start activation's token was pre-charged at pool creation. *)
  Atomic.decr sh.live;
  let idle = ref 0 in
  let took = ref false in
  (* [live = 0] is stable: a pulse's token is handed from channel to
     activation at take time and released only after the wake, so the
     counter can never dip to zero while work remains. *)
  while (not (Atomic.get sh.abort)) && Atomic.get sh.live > 0 do
    took := false;
    for pi = 0 to 1 do
      if (not !took) && (not (Atomic.get sh.abort)) && try_take sh.chan.(in_link.(pi))
      then begin
        took := true;
        let link = in_link.(pi) in
        let k = consumed.(pi) in
        let d = Transport.delay_us sh.faults ~link ~k in
        if d > 0 then Unix.sleepf (float_of_int d *. 1e-6);
        let drop = terminated () in
        match record_delivery sh ~link ~drop with
        | None ->
            (* Budget spent: put the pulse back (its token stays) and
               let everyone drain out via [abort]. *)
            Atomic.incr sh.chan.(link);
            Atomic.set sh.abort true
        | Some idx ->
            consumed.(pi) <- k + 1;
            if not drop then begin
              mailbox.(pi) <- mailbox.(pi) + 1;
              tag := idx;
              program.Network.wake api
            end;
            (* Processing done: release the pulse's token. *)
            Atomic.decr sh.live
      end
    done;
    if not !took then begin
      incr idle;
      Domain.cpu_relax ();
      (* Domains routinely outnumber cores (one per node): back off so
         idle nodes stop starving the active ones. *)
      if !idle > 2_000 then begin
        idle := 0;
        Unix.sleepf 0.0002
      end
    end
    else idle := 0
  done;
  sh.backlog.(v) <- mailbox.(0) + mailbox.(1)

let run ?(seed = 0) ?(max_deliveries = 50_000_000) ?(faults = Transport.no_fault)
    topo make_program =
  Topology.check topo;
  let n = Topology.n topo in
  let sh =
    {
      topo;
      faults;
      chan = Array.init (Topology.num_links topo) (fun _ -> Atomic.make 0);
      live = Atomic.make n (* one token per pending start *);
      abort = Atomic.make false;
      exhausted = false;
      max_deliveries;
      lock = Mutex.create ();
      sched = Transport.recorder ();
      deliveries = 0;
      drops = 0;
      terms_rev = [];
      outputs = Array.make n Output.empty;
      term = Array.init n (fun _ -> Atomic.make false);
      sends = Array.make n 0;
      backlog = Array.make n 0;
    }
  in
  (* [on_failure] flips [abort] the instant a node program (or a
     domain spawn) raises: node loops block on [live] reaching zero,
     which never happens once an activation dies mid-way, so without
     the flag the surviving loops would spin forever and [Pool.run]
     could not return. *)
  Colring_runtime.Pool.run ~jobs:n
    ~on_failure:(fun () -> Atomic.set sh.abort true)
    n
    (fun v -> node_body sh make_program ~seed v);
  let in_flight = Array.fold_left (fun a c -> a + Atomic.get c) 0 sh.chan in
  let backlog = Array.fold_left ( + ) 0 sh.backlog in
  let terms =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.rev sh.terms_rev)
  in
  {
    Transport.backend = "domains";
    scheduler = "domains-live";
    n;
    schedule = Transport.recorded sh.sched;
    outputs = Array.copy sh.outputs;
    sends = Array.fold_left ( + ) 0 sh.sends;
    deliveries = sh.deliveries;
    drops = sh.drops;
    quiescent = (not sh.exhausted) && in_flight = 0 && backlog = 0;
    all_terminated = Array.for_all Atomic.get sh.term;
    exhausted = sh.exhausted;
    termination_order = List.map snd terms;
  }

let transport () =
  {
    Transport.name = "domains";
    run =
      (fun ?seed ?max_deliveries ?faults topo make_program ->
        run ?seed ?max_deliveries ?faults topo make_program);
  }
