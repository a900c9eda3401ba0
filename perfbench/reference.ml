(* The benchmark's fixed reference work, timed after every operation to
   gauge how fast the machine runs at that moment.

   On a shared host the same election runs at anywhere from 150 to
   260 ns per delivery, in phases that last from seconds to minutes, so
   run-to-run spread of a wall-clock rate is wider than any useful
   regression bound.  Dividing each operation's time by the time of
   this work, measured right after it, cancels most of that.  The work
   is close in kind to the engine's per-delivery path: a small message
   ring (queues of boxed messages, a random pick among non-empty links,
   a closure per node) and a churn of boxed values through a long-lived
   table.  The phases slow the engine and this work alike, while a pure
   arithmetic loop barely moves: what varies is the memory system, not
   the clock.  It uses no colring code, so no change to the program
   moves it.

   Normalised times are in reference milliseconds (unit [ref_ms]): the
   operation's time scaled to a machine on which this work takes
   exactly [nominal_s]. *)

let nominal_s = 0.025

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let xorshift v =
  let v = v lxor (v lsl 13) in
  let v = v lxor (v lsr 7) in
  v lxor (v lsl 17)

type cell = { v : int; link : cell option }

(* Short-lived boxed values stored at random slots of a long-lived
   table: minor collections, promotion and write-barrier work. *)
let churn iters =
  let table = Array.make 4096 None and state = ref 7 in
  for i = 1 to iters do
    state := xorshift !state;
    let k = !state land 4095 in
    let link = Option.map (fun c -> { c with link = None }) table.((k + 1) land 4095) in
    table.(k) <- Some { v = i; link }
  done;
  Array.length table

(* [n] nodes each start one message that travels [hops] links
   clockwise; the scheduler picks a random non-empty link each step. *)
let ring ~n ~hops =
  let qs = Array.init n (fun _ -> Queue.create ()) in
  let count = Array.make n 0 in
  let nonempty = Array.make n 0 and live = ref 0 and state = ref 12345 in
  let push v m =
    if Queue.is_empty qs.(v) then begin
      nonempty.(!live) <- v;
      incr live
    end;
    Queue.push m qs.(v)
  in
  let wake =
    Array.init n (fun v (left, tag) ->
        count.(v) <- count.(v) + tag land 1;
        if left > 0 then push ((v + 1) mod n) (left - 1, tag))
  in
  for v = 0 to n - 1 do
    push v (hops, v)
  done;
  while !live > 0 do
    state := xorshift !state;
    let i = (!state land max_int) mod !live in
    let v = nonempty.(i) in
    let m = Queue.pop qs.(v) in
    if Queue.is_empty qs.(v) then begin
      decr live;
      nonempty.(i) <- nonempty.(!live)
    end;
    wake.(v) m
  done;
  Array.fold_left ( + ) 0 count

let work () =
  ignore (Sys.opaque_identity (ring ~n:256 ~hops:500));
  ignore (Sys.opaque_identity (churn 300_000))

(* Seconds the reference work takes now, run at once on [jobs] domains
   (this one and [jobs - 1] spawned ones) for operations that are
   themselves parallel. *)
let time_s ?(jobs = 1) () =
  let t0 = now_ns () in
  let others = List.init (jobs - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join others;
  float_of_int (now_ns () - t0) *. 1e-9
