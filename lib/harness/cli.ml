(* Shared command-line validation.  Every colring entry point (the
   cmdliner driver, the bench runner) funnels its numeric flags through
   these checks so `-j 0`, `-n -3` and `--max-deliveries 0` fail the
   same way everywhere: a one-line message naming the flag, not a
   backtrace from deep inside a pool or topology constructor. *)

let err flag v what = Error (Printf.sprintf "%s %d: %s" flag v what)

let positive ~flag v =
  if v >= 1 then Ok v else err flag v "must be at least 1"

let non_negative ~flag v =
  if v >= 0 then Ok v else err flag v "must not be negative"

let ring_size ~flag v =
  if v >= 2 then Ok v else err flag v "ring size must be at least 2"

let id_space ~flag ~n v =
  if v >= n then Ok v
  else err flag v (Printf.sprintf "needs at least n = %d assignable IDs" n)

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

let exit_or ~cmd = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 2
