(* Shared plumbing: the clock, order statistics, timed loops, the
   per-workload result record, and the machine-readable last line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Linear-interpolated quantile, [q] in [0, 1]; the sample need not be
   sorted.  Interpolation keeps medians of small samples (two checks
   per run) from jumping between the samples. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let array_min xs = Array.fold_left Float.min infinity xs
let array_max xs = Array.fold_left Float.max neg_infinity xs

type metric = { name : string; value : float; unit_ : string; detail : string }

type result = { attempted : int; failed : int; metrics : metric list }

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* A metric summarising repeated samples.  The value is [stat] of the
   samples (default: the median); the printed detail also carries the
   repetition count, median, min and max. *)
let summary ?(stat = median) name unit_ samples =
  {
    name;
    value = stat samples;
    unit_;
    detail =
      Printf.sprintf
        "reps=%d median=%.6g p10=%.6g p90=%.6g p99=%.6g min=%.6g max=%.6g"
        (Array.length samples) (median samples) (quantile samples 0.1)
        (quantile samples 0.9) (quantile samples 0.99) (array_min samples)
        (array_max samples);
  }

(* A rate over the whole timed phase, total work over total time, with
   the per-operation rates as its printed spread.  Run-to-run, a total
   is steadier than a median of per-operation rates: the machine's
   speed comes in phases of seconds, and a median jumps between them. *)
let aggregate name unit_ ~work ~seconds samples =
  { (summary name unit_ samples) with value = work /. seconds }

let single name unit_ value = { name; value; unit_; detail = "" }

let print_metrics =
  List.iter (fun m ->
      say "  %-34s %14.6g %-6s %s" m.name m.value m.unit_ m.detail)

(* Run [op k] for k = 0, 1, ... until [seconds] have elapsed (always at
   least once, at most [max_ops] times).  Returns the op count and the
   elapsed wall time in seconds. *)
let timed_loop ?(max_ops = max_int) ~seconds op =
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while !k < max_ops && (!k = 0 || now_ns () < deadline) do
    op !k;
    incr k
  done;
  (!k, since_s t0)

(* One round of a closed loop: the operations it completed (the unit of
   [ops_per_s]), the engine deliveries they made, how many outputs it
   checked and how many of those failed, and each operation's latency in
   wall seconds ([||] when the round's own time is its one latency
   sample). *)
type round = {
  ops : int;
  deliveries : int;
  checked : int;
  bad : int;
  lat : float array;
}

(* The timing metrics of a closed loop: operations and deliveries over
   the total time [busy], with each round's delivery rate ([d] over [t])
   as the printed spread, and latency percentiles of [lat] (seconds).
   [s] names the time unit: "s" for wall clock, "ref_s" for reference
   seconds. *)
let round_timing ~s ~ops ~busy d t lat =
  let lat = Array.map (fun t -> t *. 1e3) lat in
  let rate_unit = "1/" ^ s and ms_unit = String.sub s 0 (String.length s - 1) ^ "ms" in
  [
    single "ops_per_s" rate_unit (float_of_int ops /. busy);
    aggregate "deliveries_per_s" rate_unit ~work:(Array.fold_left ( +. ) 0. d)
      ~seconds:busy (Array.mapi (fun i t -> d.(i) /. t) t);
    summary "latency_p50_ms" ms_unit lat;
    summary ~stat:(fun a -> quantile a 0.9) "latency_tail_ms" ms_unit lat;
  ]

(* A round of two elections, from their deliveries and failed count. *)
let two_elections (deliveries, bad) =
  { ops = 2; deliveries; checked = 2; bad; lat = [||] }

let sum = Array.fold_left ( +. ) 0.

(* A closed loop of rounds, one caller: [round k] runs round [k].

   The reference work (see [Reference]) runs before the first round and
   after every round, and the JSON timing metrics are in reference time:
   the rates scale the total time by the reference work's total, and
   each round's latencies by the mean of the reference samples taken
   right before and right after it.  The wall-clock figures are printed
   on the human-readable lines. *)
let closed_rounds ~label ~seconds ?max_ops ?(ref_jobs = 1) ~setup ~heap round =
  let samples = ref [] and checked = ref 0 and failed = ref 0 in
  let r0 = Reference.time_s ~jobs:ref_jobs () in
  let rounds, elapsed =
    timed_loop ?max_ops ~seconds (fun k ->
        let t0 = now_ns () in
        let o = round k in
        let dt = since_s t0 in
        let lat = if Array.length o.lat = 0 then [| dt |] else o.lat in
        samples := ({ o with lat }, dt, Reference.time_s ~jobs:ref_jobs ()) :: !samples;
        checked := !checked + o.checked;
        failed := !failed + o.bad)
  in
  let samples = Array.of_list (List.rev !samples) in
  let d = Array.map (fun (o, _, _) -> float_of_int o.deliveries) samples in
  let wall = Array.map (fun (_, t, _) -> t) samples in
  let r = Array.map (fun (_, _, r) -> r) samples in
  let ops = Array.fold_left (fun n (o, _, _) -> n + o.ops) 0 samples in
  let nominal = Reference.nominal_s in
  let lat scale =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i (o, _, _) -> Array.map (fun t -> t *. scale i) o.lat) samples))
  in
  let around i = (r.(i) +. if i = 0 then r0 else r.(i - 1)) /. 2. in
  say "%s: %d rounds (%d ops) in %.3f s" label rounds ops elapsed;
  say "  reference work: %s (nominal %g ms)"
    (summary "" "" (Array.map (fun r -> r *. 1e3) r)).detail
    (nominal *. 1e3);
  say "  wall-clock figures (the JSON line has them in reference time):";
  print_metrics
    (round_timing ~s:"s" ~ops ~busy:(sum wall) d wall (lat (fun _ -> 1.)));
  let timing =
    round_timing ~s:"ref_s" ~ops
      ~busy:(sum wall *. nominal *. float_of_int rounds /. sum r)
      d
      (Array.mapi (fun i t -> t *. nominal /. around i) wall)
      (lat (fun i -> nominal /. around i))
  in
  {
    attempted = !checked;
    failed = !failed;
    metrics =
      timing @ [ single "peak_heap_mb" "MB" (heap ()); summary "setup_s" "s" setup ];
  }

(* Set up [reps] times and keep the last result, so set-up time is a
   median rather than one sample; [dispose] releases the discarded
   ones (a spawned child, say).  As in [closed_rounds], each set-up's
   time is scaled by the mean of the reference samples (on [ref_jobs]
   domains) right before and right after it, so the times are in
   reference seconds; the wall-clock times are printed. *)
let repeated_setup ?(dispose = ignore) ?(ref_jobs = 1) ~reps setup =
  let wall = Array.make reps 0. and scaled = Array.make reps 0. in
  let rec go i prev before =
    Option.iter dispose prev;
    let t0 = now_ns () in
    let x = setup () in
    wall.(i) <- since_s t0;
    let after = Reference.time_s ~jobs:ref_jobs () in
    scaled.(i) <- wall.(i) *. Reference.nominal_s *. 2. /. (before +. after);
    if i = reps - 1 then x else go (i + 1) (Some x) after
  in
  let x = go 0 None (Reference.time_s ~jobs:ref_jobs ()) in
  say "set-up, wall-clock: %s" (summary "" "s" wall).detail;
  (x, scaled)

(* Top of the OCaml major heap of this process, in MB. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The contract line: correctness, operation counts, and every metric
   with its unit.  A non-finite value cannot be printed as JSON, so it
   marks the run incorrect and prints as -1. *)
let json_line ~correct r =
  let finite = List.for_all (fun m -> Float.is_finite m.value) r.metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number (if Float.is_finite m.value then m.value else -1.))
          m.unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct && finite && r.failed = 0)
    r.attempted r.failed
    (String.concat ", " fields)
