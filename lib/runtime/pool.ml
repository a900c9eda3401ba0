let default_jobs () =
  match Sys.getenv_opt "COLRING_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          invalid_arg
            (Printf.sprintf "COLRING_JOBS must be a positive integer, got %S" s))

(* A failed job parks its exception in [failure] (first writer wins,
   which also fires the caller's [on_failure] hook exactly once) and
   makes every worker stop claiming, so all of them leave the call
   quickly. *)
let park ~failure ~on_failure e =
  if Atomic.compare_and_set failure None (Some e) then on_failure ()

(* One shared cursor hands out [chunk]-sized index ranges in order.
   One worker body shared by every domain (the caller included). *)
let rec claim_loop ~n ~chunk ~cursor ~failure ~on_failure f =
  if Atomic.get failure = None then begin
    let start = Atomic.fetch_and_add cursor chunk in
    if start < n then begin
      (try
         for i = start to Int.min n (start + chunk) - 1 do
           f i
         done
       with e -> park ~failure ~on_failure e);
      claim_loop ~n ~chunk ~cursor ~failure ~on_failure f
    end
  end

(* ---------------------------------------------------------------- *)
(* The pool: [size - 1] worker domains parked on [wake] between calls.
   A call publishes a fresh [task] under [lock] and bumps [generation];
   every per-call cell ([cursor], [failure]) lives in the task's
   closure, so nothing a call claims from can leak into the next one.
   Workers [1 .. task.workers - 1] run the task's body and decrement
   [busy] on the way out; the caller runs it too and returns only once
   [busy] is back to zero, i.e. after every worker has left the
   task. *)

type task = { workers : int; body : unit -> unit }

type t = {
  size : int;
  lock : Mutex.t;
  wake : Condition.t;  (** Workers: a new task, or shutdown. *)
  idle : Condition.t;  (** The caller: the last worker left the task. *)
  mutable generation : int;
  mutable task : task;
  mutable busy : int;
  mutable running : bool;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

(* A worker runs every task published after generation [seen] until
   the pool closes.  A task published before [closed] was set still
   runs: its caller is waiting on [busy]. *)
let rec worker t me seen =
  Mutex.lock t.lock;
  while t.generation = seen && not t.closed do
    Condition.wait t.wake t.lock
  done;
  let generation = t.generation and task = t.task in
  Mutex.unlock t.lock;
  if generation <> seen then begin
    if me < task.workers then begin
      task.body ();
      Mutex.lock t.lock;
      t.busy <- t.busy - 1;
      if t.busy = 0 then Condition.signal t.idle;
      Mutex.unlock t.lock
    end;
    worker t me generation
  end

let shutdown t =
  Mutex.lock t.lock;
  let domains = t.domains in
  t.domains <- [];
  t.closed <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  List.iter Domain.join domains

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      size = jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      generation = 0;
      task = { workers = 0; body = ignore };
      busy = 0;
      running = false;
      closed = false;
      domains = [];
    }
  in
  (* If [Domain.spawn] raises mid-loop (OS domain limit), the workers
     that did spawn are parked: close the pool, join them, re-raise. *)
  (try
     for d = 1 to jobs - 1 do
       t.domains <- Domain.spawn (fun () -> worker t d 0) :: t.domains
     done
   with e ->
     shutdown t;
     raise e);
  t

let exec ?chunk ?(on_failure = ignore) t n f =
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool: chunk must be >= 1"
  | _ -> ());
  if n < 0 then invalid_arg "Pool: negative job count";
  let workers = min t.size (max n 1) in
  (* Unless the caller pins a chunk, size it so each worker claims ~8
     times over a balanced run — enough slack for imbalance without
     hammering the shared cursor once per index on huge [n]. *)
  let chunk =
    match chunk with Some c -> c | None -> max 1 (n / (workers * 8))
  in
  Mutex.lock t.lock;
  let closed = t.closed and running = t.running in
  if closed || running then begin
    Mutex.unlock t.lock;
    invalid_arg
      (if closed then "Pool.exec: the pool is shut down"
       else "Pool.exec: the pool is already running a call")
  end;
  if workers = 1 then begin
    Mutex.unlock t.lock;
    try
      for i = 0 to n - 1 do
        f i
      done
    with e ->
      on_failure ();
      raise e
  end
  else begin
    let failure = Atomic.make None in
    let cursor = Atomic.make 0 in
    (* A worker's share must not raise out of its domain (the caller
       would wait on [busy] forever); the loop parks job exceptions,
       and this catches one raised by [on_failure] itself. *)
    let body () =
      try claim_loop ~n ~chunk ~cursor ~failure ~on_failure f
      with e -> park ~failure ~on_failure e
    in
    t.task <- { workers; body };
    t.generation <- t.generation + 1;
    t.busy <- workers - 1;
    t.running <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    body ();
    Mutex.lock t.lock;
    while t.busy > 0 do
      Condition.wait t.idle t.lock
    done;
    t.running <- false;
    Mutex.unlock t.lock;
    match Atomic.get failure with None -> () | Some e -> raise e
  end

let run ?chunk ?(on_failure = ignore) ~jobs n f =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let t =
    try create ~jobs:(min jobs (max n 1))
    with e ->
      on_failure ();
      raise e
  in
  match exec ?chunk ~on_failure t n f with
  | () -> shutdown t
  | exception e ->
      shutdown t;
      raise e

let map ?chunk ?on_failure ~jobs n f =
  if n < 0 then invalid_arg "Pool.map: negative job count";
  (* Every index, slot 0 included, runs on the pool.  Writes land in
     disjoint slots, and [exec]'s hand-back under the pool lock
     publishes every slot before they are read below. *)
  let out = Array.make n None in
  run ?chunk ?on_failure ~jobs n (fun i -> out.(i) <- Some (f i));
  Array.map (function Some x -> x | None -> assert false) out
