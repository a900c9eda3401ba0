(* Sampled spans around the calls the benchmark makes into a layer's
   public records (scheduler pick, program wake, api send/recv).

   Timing every call would more than double the per-delivery cost, so
   only a pseudo-random 1 in [sample_every] deliveries is timed, and on
   each of those only one layer's spans are live.  The clock's own cost
   is calibrated and subtracted. *)

let now_ns = Common.now_ns
let sample_every = 16

type span = { mutable ns : int; mutable calls : int }

let span () = { ns = 0; calls = 0 }

(* The largest share of the untraced per-delivery time the summed
   engine layers may leave unexplained (the self-test's gate). *)
let residual_tolerance = 0.15

let[@inline] close s t0 =
  s.ns <- s.ns + (now_ns () - t0);
  s.calls <- s.calls + 1

(* The clock's cost as seen by a span: the interval an empty span
   measures, in ns. *)
let calibrate () =
  let k = 1000 in
  let per_rep =
    Array.init 201 (fun _ ->
        let empty = span () in
        for _ = 1 to k do
          let t = now_ns () in
          close empty t
        done;
        float_of_int empty.ns /. float_of_int k)
  in
  Common.median per_rep

(* Sampling decision: a xorshift over the delivery counter, so the
   sampled deliveries do not alias with the ring's periodic structure. *)
let sampled k =
  let x = k lxor (k lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  x land (sample_every - 1) = 0

(* Which layer's spans are live.  One layer at a time, rotating over
   the sampled deliveries, so no live span ever encloses another and
   the clock's own cost is the only correction. *)
let off = 0
let pick_layer = 1
let wake_layer = 2
let api_layer = 3
let live = ref off

let timed layer s f x =
  if !live = layer then begin
    let t0 = now_ns () in
    let r = f x in
    close s t0;
    r
  end
  else f x

let timed2 layer s f x y =
  if !live = layer then begin
    let t0 = now_ns () in
    let r = f x y in
    close s t0;
    r
  end
  else f x y

(* The spans of one engine: whole deliveries (timed on unwrapped
   networks), and the calls a delivery makes into the scheduler, the
   node program and the node api (timed on wrapped ones). *)
type engine = {
  step : span;
  pick : span;
  wake : span;
  send : span;
  recv : span;
  sampled_by_layer : int array;  (** Sampled deliveries per live layer. *)
  mutable counter : int;  (** Sampling decisions taken. *)
  mutable rotation : int;
  mutable blocks : int;  (** Timed blocks of whole deliveries. *)
  mutable create_ns : int;
  mutable creates : int;
}

let engine () =
  {
    step = span ();
    pick = span ();
    wake = span ();
    send = span ();
    recv = span ();
    sampled_by_layer = Array.make 4 0;
    counter = 0;
    rotation = 0;
    blocks = 0;
    create_ns = 0;
    creates = 0;
  }

let pick e (s : Colring_engine.Scheduler.t) =
  { s with Colring_engine.Scheduler.pick = timed pick_layer e.pick s.pick }

let next_sampled e =
  e.counter <- e.counter + 1;
  sampled e.counter

(* Up to [block] deliveries through [step] on an unwrapped network;
   sampled blocks are timed whole, which spreads the clock's cost over
   the block.  Returns whether messages remain in flight. *)
let block = 16

let deliver_whole e step =
  let timed = next_sampled e in
  let t0 = if timed then now_ns () else 0 in
  let n = ref 0 and more = ref true in
  while !more && !n < block do
    if step () then incr n else more := false
  done;
  if timed && !n > 0 then begin
    e.step.ns <- e.step.ns + (now_ns () - t0);
    e.step.calls <- e.step.calls + !n;
    e.blocks <- e.blocks + 1
  end;
  !more

(* One delivery through [step] on a wrapped network: sampled ones time
   the calls into the next layer of the rotation. *)
let deliver_layered e step =
  if next_sampled e then begin
    let layer = 1 + (e.rotation mod 3) in
    e.rotation <- e.rotation + 1;
    live := layer;
    let more = step () in
    live := off;
    if more then
      e.sampled_by_layer.(layer) <- e.sampled_by_layer.(layer) + 1;
    more
  end
  else step ()

(* Network creation, timed on unwrapped networks only. *)
let create e ~layered f =
  let t0 = now_ns () in
  let net = f () in
  if not layered then begin
    e.create_ns <- e.create_ns + (now_ns () - t0);
    e.creates <- e.creates + 1
  end;
  net

(* Per-call and per-delivery layer times with the clock's cost taken
   out.  [deliver_self] is what a delivery costs outside the scheduler
   and the program: the engine's own queues, mailboxes and its
   sink/metrics tee, none of which is reachable from outside. *)
type layers = {
  pick_ns : float;  (** per pick *)
  wake_ns : float;  (** per wake, self time (api calls excluded) *)
  send_ns : float;  (** per api send *)
  recv_ns : float;  (** per api recv *)
  sends_per_delivery : float;
  step_ns : float;  (** per delivery *)
  deliver_self_ns : float;  (** per delivery *)
  create_us : float;  (** per network *)
}

let layers clock e =
  let f = float_of_int in
  let per s = if s.calls = 0 then 0. else (f s.ns /. f s.calls) -. clock in
  let per_delivery s layer =
    f s.calls /. f (max 1 e.sampled_by_layer.(layer))
  in
  let picks = per_delivery e.pick pick_layer in
  let wakes = per_delivery e.wake wake_layer in
  let sends = per_delivery e.send api_layer in
  let recvs = per_delivery e.recv api_layer in
  let api = (sends *. per e.send) +. (recvs *. per e.recv) in
  let step =
    (f e.step.ns -. (f e.blocks *. clock)) /. f (max 1 e.step.calls)
  in
  {
    pick_ns = per e.pick;
    wake_ns = per e.wake -. (api /. Float.max wakes 1e-9);
    send_ns = per e.send;
    recv_ns = per e.recv;
    sends_per_delivery = sends;
    step_ns = step;
    deliver_self_ns = step -. (picks *. per e.pick) -. (wakes *. per e.wake);
    create_us = f e.create_ns /. f (max 1 e.creates) /. 1e3;
  }

(* One engine's layer group.  Each election of each round runs twice:
   untraced through [plain], then through [traced], which drives the
   engine's step from the benchmark's own loop.  Traced rounds
   alternate between unwrapped networks (whole deliveries timed) and
   wrapped ones (single layers timed), so both see every topology of a
   round.  [plain] and [traced] return deliveries and the verdict.

   The residual is the share of the untraced time per delivery that
   the summed layers (network creation included) leave unexplained;
   the overhead compares traced with untraced elections.  Metric names
   follow the ring engine's, with [prefix] before the layer and [net]
   naming the engine itself. *)
let engine_group ~prefix ~net ~seconds ~rounds ~plain ~traced =
  let clock = calibrate () in
  List.iter (fun el -> ignore (plain el)) rounds.(0);
  let e = engine () in
  let plain_ns = ref 0 and plain_d = ref 0 and minor = ref 0. in
  let traced_ns = ref 0 and traced_d = ref 0 and whole_d = ref 0 in
  let failed = ref 0 and elections = ref 0 and layered = ref false in
  let _ =
    Common.timed_loop ~seconds (fun k ->
        List.iter
          (fun el ->
            let w0 = Gc.minor_words () in
            let t0 = now_ns () in
            let d, ok = plain el in
            plain_ns := !plain_ns + (now_ns () - t0);
            minor := !minor +. (Gc.minor_words () -. w0);
            plain_d := !plain_d + d;
            let t0 = now_ns () in
            let d', ok' = traced e ~layered:!layered el in
            traced_ns := !traced_ns + (now_ns () - t0);
            traced_d := !traced_d + d';
            if not !layered then whole_d := !whole_d + d';
            elections := !elections + 2;
            failed := !failed + Bool.to_int (not ok) + Bool.to_int (not ok'))
          rounds.(k mod Array.length rounds);
        layered := not !layered)
  in
  let f = float_of_int in
  let l = layers clock e in
  let e2e_ns = f !plain_ns /. f !plain_d in
  let layers_ns = l.step_ns +. (f e.create_ns /. f (max 1 !whole_d)) in
  let residual = (e2e_ns -. layers_ns) /. e2e_ns in
  Common.say
    "  %strace: %d whole + %d layered sampled deliveries, clock %.1f \
     ns/span; layers %.1f ns/delivery vs %.1f untraced, residual %+.4f"
    prefix e.step.calls
    (Array.fold_left ( + ) 0 e.sampled_by_layer)
    clock layers_ns e2e_ns residual;
  let m name unit_ v = Common.single (prefix ^ name) unit_ v in
  ( !elections,
    !failed,
    [
      m "scheduler.pick_ns" "ns" l.pick_ns;
      m "program.wake_ns" "ns" l.wake_ns;
      m "api.send_ns" "ns" l.send_ns;
      m "api.recv_ns" "ns" l.recv_ns;
      m "api.sends_per_delivery" "count" l.sends_per_delivery;
      Common.single (net ^ "step_ns") "ns" l.step_ns;
      Common.single (net ^ "deliver_self_ns") "ns" l.deliver_self_ns;
      Common.single (net ^ "create_us") "us" l.create_us;
      m "engine.minor_words_per_delivery" "words" (!minor /. f !plain_d);
      m "trace.overhead_frac" "frac"
        ((f !traced_ns /. f !traced_d /. e2e_ns) -. 1.);
      m "trace.residual_frac" "frac" (Float.abs residual);
    ] )
