(* serve-mix: one [colring serve] child fed spec lines over a single
   stdin/stdout pipe pair.  Lines mix algo1, algo2 and algo3-improved
   at n in {8, 16}; each job is only 0.1k-1k deliveries, so per-job
   set-up and line I/O dominate.  Two phases:
   - paced: an open loop at [paced_rate] lines/s (about a fifth of
     the burst rate), each line timed from its due time to its reply,
     with the generator's lateness reported;
   - burst: a closed loop of rounds of [round_lines] back-to-back
     lines with at most [window] in flight; the JSON metrics.
   Every reply is compared field by field with an in-process
   [Election.run_report] reference computed after both phases. *)

open Colring_engine
open Common
module Batch = Colring_harness.Batch
module Election = Colring_core.Election
module Rng = Colring_stats.Rng

let paced_rate = 1500.
let round_lines = 512
let window = 64

(* Distinct lines generated in set-up; the phases cycle through them. *)
let pool = 4096

let algorithms = [| "algo1"; "algo2"; "algo3-improved" |]

let lines ~seed =
  let rng = Rng.create ~seed in
  Array.init pool (fun _ ->
      Printf.sprintf "%s %d %d" (Rng.choose rng algorithms)
        (Rng.choose rng [| 8; 16 |])
        (Rng.bits rng 30))

(* ------------------------------------------------------------------ *)
(* The child *)

type session = {
  pid : int;
  oc : Unix.file_descr;
  ic : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
  mutable replies : int;
}

let spawn colring =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process colring [| colring; "serve" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    oc = in_w;
    ic = out_r;
    pending = Buffer.create 256;
    chunk = Bytes.create 65536;
    replies = 0;
  }

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Wait up to [timeout] seconds for output and hand every complete
   reply line to [f index arrival_ns line]. *)
let poll s timeout f =
  match Unix.select [ s.ic ] [] [] timeout with
  | [], _, _ -> ()
  | _ ->
      let k = Unix.read s.ic s.chunk 0 (Bytes.length s.chunk) in
      if k = 0 then failwith "colring serve closed its output";
      let t = now_ns () in
      for i = 0 to k - 1 do
        match Bytes.get s.chunk i with
        | '\n' ->
            let line = Buffer.contents s.pending in
            Buffer.clear s.pending;
            f s.replies t line;
            s.replies <- s.replies + 1
        | ch -> Buffer.add_char s.pending ch
      done
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Peak resident set of the child, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1e3)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let close s =
  Unix.close s.oc;
  (try
     while true do
       poll s 5.0 (fun _ _ _ -> ())
     done
   with Failure _ | Unix.Unix_error _ -> ());
  Unix.close s.ic;
  ignore (Unix.waitpid [] s.pid)

(* Send [lines] back to back and wait for all their replies. *)
let roundtrip s lines =
  let target = s.replies + List.length lines in
  write_all s.oc (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let got = ref [] in
  while s.replies < target do
    poll s 1.0 (fun _ _ line -> got := line :: !got)
  done;
  List.rev !got

(* One line per flock group (oriented or not, n = 8 or 16), so every
   warm flock the phases use exists before timing starts. *)
let warmup_lines =
  [ "algo1 8 1"; "algo1 16 2"; "algo3-improved 8 3"; "algo3-improved 16 4" ]

let start colring =
  let s = spawn colring in
  ignore (roundtrip s warmup_lines);
  s

(* ------------------------------------------------------------------ *)
(* Phases *)

type phase = {
  idx : int array;  (** Pool index of each line, in send order. *)
  due : int array;  (** ns; the send time itself in the burst phase. *)
  sent : int array;
  reply_at : int array;
  reply : string array;
}

let paced s ~lines ~first ~seconds =
  let count = int_of_float (paced_rate *. seconds) in
  let period = 1e9 /. paced_rate in
  let base = s.replies in
  let sent = Array.make count 0 and reply_at = Array.make count 0 in
  let reply = Array.make count "" in
  let record i t line =
    reply_at.(i - base) <- t;
    reply.(i - base) <- line
  in
  let t0 = now_ns () + 1_000_000 in
  let due = Array.init count (fun i -> t0 + int_of_float (float_of_int i *. period)) in
  let next = ref 0 in
  while s.replies - base < count do
    let now = now_ns () in
    if !next < count && due.(!next) <= now then begin
      write_all s.oc (lines.((first + !next) mod pool) ^ "\n");
      sent.(!next) <- now_ns ();
      incr next
    end
    else begin
      (* Sleep in select until shortly before the next due time, then
         spin, so the generator is rarely late by more than a few us. *)
      let wait =
        if !next < count then float_of_int (due.(!next) - now - 150_000) *. 1e-9
        else 1.0
      in
      poll s (Float.max 0. wait) record
    end
  done;
  { idx = Array.init count (fun i -> (first + i) mod pool); due; sent; reply_at; reply }

(* One burst round: [round_lines] lines from pool index [first], at
   most [window] in flight, each timed from its send to its reply. *)
let burst_round s ~lines ~first =
  let base = s.replies in
  let sent = Array.make round_lines 0 and reply_at = Array.make round_lines 0 in
  let reply = Array.make round_lines "" in
  let record i t line =
    reply_at.(i - base) <- t;
    reply.(i - base) <- line
  in
  let next = ref 0 in
  while s.replies - base < round_lines do
    let outstanding = !next - (s.replies - base) in
    if !next < round_lines && outstanding < window then begin
      let k = min (window - outstanding) (round_lines - !next) in
      let batch =
        List.init k (fun j -> lines.((first + !next + j) mod pool) ^ "\n")
      in
      write_all s.oc (String.concat "" batch);
      Array.fill sent !next k (now_ns ());
      next := !next + k
    end;
    poll s 0.1 record
  done;
  {
    idx = Array.init round_lines (fun i -> (first + i) mod pool);
    due = sent;
    sent;
    reply_at;
    reply;
  }

(* ------------------------------------------------------------------ *)
(* Verification *)

let spec_of_line line =
  match Batch.parse_line line with
  | Ok (Some s) -> s
  | Ok None | Error _ -> invalid_arg ("serve-mix: bad generated line " ^ line)

let fields line =
  match String.split_on_char ' ' line with
  | status :: kvs ->
      ("status", status)
      :: List.map
           (fun kv ->
             match String.index_opt kv '=' with
             | Some i ->
                 (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
             | None -> (kv, ""))
           kvs
  | [] -> []

(* The deliveries a reply reports; [verify] checks them later with
   every other field. *)
let deliveries_of line =
  match List.assoc_opt "deliveries" (fields line) with
  | Some d -> Option.value ~default:0 (int_of_string_opt d)
  | None -> 0

(* What [colring serve] must answer for a spec, computed in process
   with the same topology, IDs and scheduler it uses; [None] when the
   reference election itself fails its verdicts. *)
let reference (s : Batch.spec) =
  let oriented =
    match s.Batch.algorithm with
    | Election.Algo1 | Election.Algo2 -> true
    | Election.Algo3 _ | Election.Algo3_resample -> false
  in
  let topo =
    if oriented then Topology.oriented s.Batch.n
    else Topology.random_non_oriented (Rng.create ~seed:s.Batch.n) s.Batch.n
  in
  let r =
    Election.run_report ~seed:s.Batch.seed s.Batch.algorithm ~topo
      ~ids:(Batch.ids_of_spec s)
      ~sched:(Scheduler.random (Rng.create ~seed:s.Batch.seed))
  in
  if not (Election.ok r) then None
  else
    Some
      [
        ("status", "ok");
        ("algo", r.Election.algorithm);
        ("n", string_of_int r.Election.n);
        ("seed", string_of_int s.Batch.seed);
        ( "leader",
          match r.Election.leader with Some v -> string_of_int v | None -> "none"
        );
        ("sends", string_of_int r.Election.sends);
        ("deliveries", string_of_int r.Election.deliveries);
      ]

(* Failed replies of the given phases: any field differing from the
   reference. *)
let verify ~lines phases =
  let refs = Array.make pool None in
  let ref_of i =
    match refs.(i) with
    | Some r -> r
    | None ->
        let r = reference (spec_of_line lines.(i)) in
        refs.(i) <- Some r;
        r
  in
  let failed = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun j i ->
          match ref_of i with
          | Some want when fields p.reply.(j) = want -> ()
          | Some _ | None ->
              if !failed < 3 then
                say "serve-mix: FAILED reply %S for line %S" p.reply.(j)
                  lines.(i);
              incr failed)
        p.idx)
    phases;
  !failed

(* ------------------------------------------------------------------ *)
(* The workload *)

let ms_of_ns a = Array.map (fun x -> float_of_int x *. 1e-6) a
let diff a b = Array.mapi (fun i x -> x - b.(i)) a

let run ?corrupt ~colring ~seed ~seconds () =
  let (s, lines), setup =
    repeated_setup ~reps:9
      ~dispose:(fun (s, _) -> close s)
      (fun () ->
        let lines = lines ~seed in
        (start colring, lines))
  in
  let paced = paced s ~lines ~first:0 ~seconds:(0.4 *. seconds) in
  let first = Array.length paced.idx in
  let rounds = ref [] in
  let r =
    closed_rounds ~label:"serve-mix burst" ~seconds:(0.6 *. seconds) ~setup
      ~heap:(fun () -> vm_hwm_mb s.pid)
      (fun k ->
        let p = burst_round s ~lines ~first:(first + (k * round_lines)) in
        rounds := p :: !rounds;
        {
          ops = round_lines;
          deliveries = Array.fold_left (fun d l -> d + deliveries_of l) 0 p.reply;
          checked = round_lines;
          bad = 0;
          lat = Array.map (fun ns -> float_of_int ns *. 1e-9) (diff p.reply_at p.sent);
        })
  in
  close s;
  let burst = List.rev !rounds in
  (match (corrupt, burst) with
  | Some j, p :: _ ->
      (* Self-test hook: tamper with one reply before the gate sees it. *)
      p.reply.(j) <- p.reply.(j) ^ "0"
  | _ -> ());
  let failed = verify ~lines (paced :: burst) in
  let lat = ms_of_ns (diff paced.reply_at paced.due) in
  let late = ms_of_ns (diff paced.sent paced.due) in
  say "serve-mix paced: %d lines at %.0f/s; wall latency from due time p50 \
       %.4f ms, p90 %.4f ms, p99 %.4f ms; generator late p50 %.4f ms, p99 \
       %.4f ms, max %.4f ms"
    (Array.length lat) paced_rate (median lat) (quantile lat 0.9)
    (quantile lat 0.99) (median late) (quantile late 0.99) (array_max late);
  { r with attempted = r.attempted + Array.length lat; failed = r.failed + failed }

(* ------------------------------------------------------------------ *)
(* Harness layers: the serve-mix lines replayed in process through the
   calls [serve] makes, [Batch.parse_line] and [Batch.run [|spec|]],
   with the scheduler factory wrapped on 1 job in 8; then queueing and
   I/O from a shorter serve session. *)

let trace ~colring ~seed ~seconds =
  say "harness layers (Batch, serve) on serve-mix lines";
  let clock = Spans.calibrate () in
  let lines = lines ~seed in
  let pick = Spans.span () in
  let parse_ns = ref 0 and run_ns = ref 0 and runs = ref 0 in
  let sampled_jobs = ref 0 and failed = ref 0 in
  let jobs, _ =
    timed_loop ~seconds:(seconds /. 2.) (fun k ->
        let t0 = now_ns () in
        let spec = spec_of_line lines.(k mod pool) in
        parse_ns := !parse_ns + (now_ns () - t0);
        let sampled = k land 7 = 0 in
        let sched seed =
          let s = Scheduler.random (Rng.create ~seed) in
          if sampled then
            { s with Scheduler.pick = Spans.timed Spans.pick_layer pick s.Scheduler.pick }
          else s
        in
        if sampled then Spans.live := Spans.pick_layer;
        let t0 = now_ns () in
        let o = Batch.run ~sched [| spec |] in
        let dt = now_ns () - t0 in
        Spans.live := Spans.off;
        if sampled then incr sampled_jobs
        else begin
          run_ns := !run_ns + dt;
          incr runs
        end;
        if not (Election.ok o.Batch.reports.(0)) then incr failed)
  in
  let f = float_of_int in
  let run_us = f !run_ns /. f (max 1 !runs) /. 1e3 in
  let pick_true = f pick.Spans.ns -. (f pick.Spans.calls *. clock) in
  let s = start colring in
  let p = paced s ~lines ~first:0 ~seconds:(0.2 *. seconds) in
  let rounds = ref [] in
  let burst_rounds, burst_s =
    timed_loop ~seconds:(0.3 *. seconds) (fun k ->
        rounds :=
          burst_round s ~lines ~first:(Array.length p.idx + (k * round_lines))
          :: !rounds)
  in
  close s;
  let serve_failed = verify ~lines (p :: !rounds) in
  (* Single-server reconstruction: a line waits in the pipe from its
     send until the previous reply leaves. *)
  let wait =
    Array.init (Array.length p.sent) (fun i ->
        if i = 0 then 0.
        else Float.max 0. (f (p.reply_at.(i - 1) - p.sent.(i)) *. 1e-6))
  in
  let late = ms_of_ns (diff p.sent p.due) in
  let burst_lines = burst_rounds * round_lines in
  let burst_us = burst_s *. 1e6 /. f burst_lines in
  ( jobs + Array.length p.idx + burst_lines,
    !failed + serve_failed,
    [
      single "batch.parse_us" "us" (f !parse_ns /. f jobs /. 1e3);
      single "batch.run_us" "us" run_us;
      single "batch.pick_share" "frac" (pick_true /. (run_us *. 1e3 *. f !sampled_jobs));
      single "serve.io_us" "us" (burst_us -. run_us);
      single "serve.queue_wait_mean_ms" "ms"
        (Array.fold_left ( +. ) 0. wait /. f (Array.length wait));
      single "serve.queue_wait_p99_ms" "ms" (quantile wait 0.99);
      single "serve.gen_late_ms" "ms" (quantile late 0.99);
    ] )
