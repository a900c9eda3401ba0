(* Shared command-line validation.  Every colring entry point (the
   cmdliner driver, the bench runner) funnels its flags through these
   checks so `-j 0`, `-n -3`, `--max-deliveries 0` or `--scheduler
   bogus` fail the same way everywhere: a one-line message naming the
   flag, not a backtrace from deep inside a pool or topology
   constructor. *)

let err flag v what = Error (Printf.sprintf "%s %d: %s" flag v what)

let positive ~flag v =
  if v >= 1 then Ok v else err flag v "must be at least 1"

let non_negative ~flag v =
  if v >= 0 then Ok v else err flag v "must not be negative"

let positive_float ~flag v =
  if Float.is_finite v && v > 0. then Ok v
  else Error (Printf.sprintf "%s %g: must be a finite number above 0" flag v)

let ring_size ~flag v =
  if v >= 2 then Ok v else err flag v "ring size must be at least 2"

(* The largest closed form, Algorithm 3's doubled total
   n(4*ID_max-1), must stay below [max_int], which leaves the model
   checker's depth budget (one more delivery) room too. *)
let id_space ~flag ~n v =
  if v < n then
    err flag v (Printf.sprintf "needs at least n = %d assignable IDs" n)
  else if n >= 1 && v > (((max_int - 1) / n) + 1) / 4 then
    err flag v
      (Printf.sprintf
         "the pulse total n(4*ID_max-1) with n = %d overflows an int" n)
  else Ok v

(* Algorithm 2's solitude run for [id] takes 2*id+1 deliveries, which
   must fit one extraction's budget. *)
let solitude_id ~flag v =
  let budget = Colring_lowerbound.Solitude.max_deliveries in
  let max_id = (budget - 1) / 2 in
  if v <= max_id then Ok v
  else
    err flag v
      (Printf.sprintf
         "Algorithm 2's solitude run takes 2*id+1 deliveries, more than \
          the %d-delivery budget (largest id %d)"
         budget max_id)

let link_budget ~flag ~value ~max links =
  if links <= max then Ok links
  else
    Error
      (Printf.sprintf
         "%s %s: %d directed links, but the model checker handles at most %d"
         flag value links max)

let jobs ~flag = function
  | None -> Ok (Colring_runtime.Pool.default_jobs ())
  | Some v -> positive ~flag v

let schedulers =
  let open Colring_engine in
  [
    ("random", fun seed -> Scheduler.random (Colring_stats.Rng.create ~seed));
    ("fifo", fun _ -> Scheduler.fifo);
    ("global-fifo", fun _ -> Scheduler.global_fifo);
    ("lifo", fun _ -> Scheduler.lifo);
    ("round-robin", fun _ -> Scheduler.round_robin ());
    ("bias-cw", fun _ -> Scheduler.bias_direction ~cw:true);
    ("bias-ccw", fun _ -> Scheduler.bias_direction ~cw:false);
  ]

let scheduler ~flag name =
  match List.assoc_opt name schedulers with
  | Some make -> Ok make
  | None ->
      Error
        (Printf.sprintf "%s %s: unknown scheduler, expected one of %s" flag
           name
           (String.concat ", " (List.map fst schedulers)))

(* [Sys_error] messages already lead with the path. *)
let output_file ~flag path =
  match open_out path with
  | oc -> Ok oc
  | exception Sys_error msg -> Error (Printf.sprintf "%s %s" flag msg)

let output_dir ~flag dir =
  match Sys.is_directory dir with
  | true -> Ok dir
  | false -> Error (Printf.sprintf "%s %s: not a directory" flag dir)
  | exception Sys_error _ -> (
      match Sys.mkdir dir 0o755 with
      | () -> Ok dir
      | exception Sys_error msg -> Error (Printf.sprintf "%s %s" flag msg))

let exit_or ~cmd = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 2
