(* Real-process transport: one forked child per node, pulse framing
   over local sockets (AF_UNIX socketpairs, or 127.0.0.1 TCP with
   [~tcp:true]).  The wire format is the model's whole point made
   concrete: a pulse is ONE BYTE whose only information is which port
   it crosses — there is nothing else to put on the wire.

   Framing (all single bytes):

     coordinator -> child   0x00/0x01  pulse arrival on that local port
                            0xF0       stop; child answers with its
                                       fixed-size report and exits
     child -> coordinator   0x00/0x01  pulse sent from that local port
                            0xFA       activation finished (ack)
                            0xFB       this node just terminated
                            0xFC       arrival while terminated (drop
                                       ack, in place of 0xFA)
                            0xFE       node program raised (the
                                       child then waits to be killed)

   Every activation (the start, and each forwarded pulse) is answered
   by exactly one ack after the activation's sends, so the byte stream
   from a child is the concatenation, in activation order, of
   [sends... (0xFB)? ack].  The single-threaded coordinator therefore
   sees a send only after recording the delivery that caused it, which
   makes the recorded schedule causally consistent and replayable via
   [Scheduler.of_schedule] (same argument as the domains backend, with
   socket FIFO order standing in for the mutex).

   Latency/jitter run in the coordinator: a pulse read from its sender
   is held for [Transport.delay_us] microseconds before being
   forwarded.  Same-link reordering under jitter is unobservable —
   pulses are indistinguishable — which is why injected faults still
   replay exactly.

   The coordinator never trusts progress: a wall-clock deadline kills
   every child (SIGKILL) and raises [Failure] if the run wedges. *)

open Colring_engine

let byte_ack = 0xFA
let byte_term = 0xFB
let byte_drop = 0xFC
let byte_err = 0xFE
let byte_stop = 0xF0
let report_len = 24

(* ------------------------------------------------------------------ *)
(* Child side *)

let rec write_all fd b off len =
  if len > 0 then begin
    let w = Unix.write fd b off len in
    write_all fd b (off + w) (len - w)
  end

let write_byte fd c =
  let b = Bytes.make 1 (Char.chr c) in
  write_all fd b 0 1

let rec read_exactly fd b off len =
  if len > 0 then begin
    let r = Unix.read fd b off len in
    if r = 0 then failwith "Transport.socket: peer closed";
    read_exactly fd b (off + r) (len - r)
  end

let read_byte fd =
  let b = Bytes.create 1 in
  read_exactly fd b 0 1;
  Char.code (Bytes.get b 0)

let int32_be b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))

let get_int32_be b off =
  let u =
    (Char.code (Bytes.get b off) lsl 24)
    lor (Char.code (Bytes.get b (off + 1)) lsl 16)
    lor (Char.code (Bytes.get b (off + 2)) lsl 8)
    lor Char.code (Bytes.get b (off + 3))
  in
  (* Sign-extend: output values may be negative. *)
  if u land 0x8000_0000 <> 0 then u - 0x1_0000_0000 else u

(* Fixed-size final report: role, claimed cw port, termination flag,
   output value (if any), sends, mailbox backlog.  [values] lists are
   not carried — the transport serves the election algorithms, which
   never set them. *)
let encode_report ~(output : Output.t) ~terminated ~sends ~backlog =
  let b = Bytes.make report_len '\000' in
  Bytes.set b 0
    (Char.chr
       (match output.Output.role with
       | Output.Leader -> 0
       | Output.Non_leader -> 1
       | Output.Undecided -> 2));
  Bytes.set b 1
    (Char.chr
       (match output.Output.cw_port with
       | Some p -> Port.index p
       | None -> 0xFF));
  Bytes.set b 2 (Char.chr (if terminated then 1 else 0));
  (match output.Output.value with
  | Some v ->
      Bytes.set b 3 '\001';
      int32_be b 4 v
  | None -> Bytes.set b 3 '\000');
  int32_be b 8 sends;
  int32_be b 12 backlog;
  b

let decode_report b =
  let role =
    match Char.code (Bytes.get b 0) with
    | 0 -> Output.Leader
    | 1 -> Output.Non_leader
    | _ -> Output.Undecided
  in
  let cw_port =
    match Char.code (Bytes.get b 1) with
    | 0 -> Some Port.P0
    | 1 -> Some Port.P1
    | _ -> None
  in
  let terminated = Char.code (Bytes.get b 2) = 1 in
  let value =
    if Char.code (Bytes.get b 3) = 1 then Some (get_int32_be b 4) else None
  in
  let sends = get_int32_be b 8 in
  let backlog = get_int32_be b 12 in
  ( { Output.role; cw_port; value; values = [] },
    terminated,
    sends,
    backlog )

(* The child never returns: it runs its node's program against the
   socket api until told to stop, then reports and [_exit]s (skipping
   at_exit / inherited channel flushing). *)
let child_main fd ~seed ~v program =
  let exit_code = ref 0 in
  (try
     let mailbox = [| 0; 0 |] in
     let sends = ref 0 in
     let term = ref false in
     let output = ref Output.empty in
     let api =
       Transport.mailbox_api ~node:v ~seed ~mailbox
         ~send:(fun p () ->
           if !term then failwith "Transport.socket: send after terminate";
           incr sends;
           write_byte fd p)
         ~set_output:(fun o -> output := o)
         ~terminate:(fun () ->
           if not !term then begin
             term := true;
             write_byte fd byte_term
           end)
     in
     program.Network.start api;
     write_byte fd byte_ack;
     let running = ref true in
     while !running do
       match read_byte fd with
       | (0 | 1) as pi ->
           if !term then write_byte fd byte_drop
           else begin
             mailbox.(pi) <- mailbox.(pi) + 1;
             program.Network.wake api;
             write_byte fd byte_ack
           end
       | b when b = byte_stop ->
           write_all fd
             (encode_report ~output:!output ~terminated:!term ~sends:!sends
                ~backlog:(mailbox.(0) + mailbox.(1)))
             0 report_len;
           running := false
       | b ->
           failwith (Printf.sprintf "Transport.socket: bad opcode %#x" b)
     done
   with _ -> (
     exit_code := 1;
     (* Report the error, then read until the coordinator closes: a
        child that exited with bytes unread would reset its socket,
        and the coordinator could see that before the error byte. *)
     try
       write_byte fd byte_err;
       let b = Bytes.create 256 in
       while Unix.read fd b 0 256 > 0 do
         ()
       done
     with _ -> ()));
  Unix._exit !exit_code

(* ------------------------------------------------------------------ *)
(* Coordinator side *)

type child = {
  pid : int;
  fd : Unix.file_descr;
  pending : int Queue.t; (* activation tags, oldest first *)
  mutable report : (Output.t * bool * int * int) option;
}

(* In-transit pulses held for their fault delay.  Traffic volumes are
   small (a few thousand pulses at most in flight), so an unsorted
   list with a linear min-scan beats carrying a heap. *)
type flight = { due : float; fseq : int; link : int }

(* Earliest-due pulse (forward order breaking due ties), if it is
   already due; paired with the remaining list. *)
let pop_due flights now =
  let earlier a b = a.due < b.due || (a.due = b.due && a.fseq < b.fseq) in
  let best =
    List.fold_left
      (fun acc f ->
        match acc with Some b when earlier b f -> acc | _ -> Some f)
      None flights
  in
  match best with
  | Some f when f.due <= now ->
      Some (f, List.filter (fun g -> g.fseq <> f.fseq) flights)
  | _ -> None

let next_due flights =
  List.fold_left
    (fun a f -> match a with None -> Some f.due | Some d -> Some (min d f.due))
    None flights

let kill_children children =
  Array.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    children;
  Array.iter
    (fun c -> try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ())
    children

(* [Unix.fork] is forbidden for the rest of the process lifetime once
   any domain has ever been spawned (OCaml 5 runtime rule) — so a
   socket-backend run must precede every domains-backend run sharing
   its process.  Translate the runtime's message into that advice. *)
let fork_node () =
  try Unix.fork ()
  with Failure msg ->
    failwith
      ("Transport.socket: " ^ msg
     ^ " — the socket backend must run before any domains-backend (or \
        other Domain.spawn) use in the same process; run it in its own \
        process instead")

(* Reap an array of pids unconditionally (partial-spawn cleanup). *)
let kill_pids pids =
  Array.iter
    (fun pid ->
      if pid > 0 then (
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()))
    pids

let spawn_ring ~tcp ~seed ~n make_program =
  if not tcp then begin
    let pids = Array.make n 0 in
    let fds = Array.make n Unix.stdin in
    (try
       for v = 0 to n - 1 do
         let coord_fd, child_fd =
           Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
         in
         match fork_node () with
         | 0 ->
             (* Keep only our own end: coordinator-side fds inherited
                from earlier iterations must not pin peers open. *)
             Unix.close coord_fd;
             for u = 0 to v - 1 do
               Unix.close fds.(u)
             done;
             child_main child_fd ~seed ~v (make_program v)
         | pid ->
             Unix.close child_fd;
             pids.(v) <- pid;
             fds.(v) <- coord_fd
       done
     with e ->
       kill_pids pids;
       raise e);
    (pids, fds)
  end
  else begin
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let pids = Array.make n 0 in
    (try
       Unix.setsockopt listener Unix.SO_REUSEADDR true;
       Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
       Unix.listen listener n;
       let addr = Unix.getsockname listener in
       for v = 0 to n - 1 do
         match fork_node () with
         | 0 ->
             Unix.close listener;
             let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
             Unix.connect fd addr;
             Unix.setsockopt fd Unix.TCP_NODELAY true;
             (* Identify ourselves: accept order is arbitrary. *)
             write_byte fd v;
             child_main fd ~seed ~v (make_program v)
         | pid -> pids.(v) <- pid
       done;
       let fds = Array.make n Unix.stdin in
       for _ = 1 to n do
         (* A child that dies before connecting would hang accept:
            bound the handshake. *)
         (match Unix.select [ listener ] [] [] 10. with
         | [], _, _ -> failwith "Transport.socket: TCP handshake timed out"
         | _ -> ());
         let fd, _ = Unix.accept listener in
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         let v = read_byte fd in
         fds.(v) <- fd
       done;
       Unix.close listener;
       (pids, fds)
     with e ->
       (try Unix.close listener with Unix.Unix_error _ -> ());
       kill_pids pids;
       raise e)
  end

(* Wall-clock bound on a whole run: past it the children are killed. *)
let deadline_s = 120.

let run_ring ~seed ~max_deliveries ~faults ~tcp topo make_program =
  Topology.check topo;
  let n = Topology.n topo in
  (* Anything buffered on inherited channels would be duplicated by
     every child's exit path. *)
  flush stdout;
  flush stderr;
  let pids, fds = spawn_ring ~tcp ~seed ~n make_program in
  let children =
    Array.init n (fun v ->
        let pending = Queue.create () in
        Queue.push (v - n) pending;
        { pid = pids.(v); fd = fds.(v); pending; report = None })
  in
  let sched = Transport.recorder () in
  let deliveries = ref 0 in
  let drops = ref 0 in
  let terms_rev = ref [] in
  let outstanding = ref n (* unacked activations; the n starts first *) in
  let flights = ref [] in
  let fseq = ref 0 in
  let sent_on = Array.make (Topology.num_links topo) 0 in
  let exhausted = ref false in
  let t0 = Unix.gettimeofday () in
  let fail msg =
    kill_children children;
    failwith ("Transport.socket: " ^ msg)
  in
  (* A child that died mid-run shows up as end of file, or as a reset
     or broken pipe on its socket. *)
  let exited u = fail (Printf.sprintf "node %d exited early" u) in
  let to_child u b =
    try write_byte children.(u).fd b
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> exited u
  in
  let forward f =
    if (not !exhausted) && sched.Transport.len >= max_deliveries then
      exhausted := true;
    if !exhausted then ()
    else begin
      let dst, dst_port = Topology.link_dst topo f.link in
      let idx = sched.Transport.len in
      Transport.record sched f.link;
      Queue.push idx children.(dst).pending;
      incr outstanding;
      to_child dst (Port.index dst_port)
    end
  in
  let on_send u pi =
    let link = Topology.link_id topo u (Port.of_index pi) in
    let k = sent_on.(link) in
    sent_on.(link) <- k + 1;
    let d = Transport.delay_us faults ~link ~k in
    let f =
      { due = Unix.gettimeofday () +. (float_of_int d *. 1e-6); fseq = !fseq; link }
    in
    incr fseq;
    flights := f :: !flights
  in
  let on_child_byte u b =
    let c = children.(u) in
    if b = 0 || b = 1 then on_send u b
    else if b = byte_term then
      (* The activation being processed is the oldest unacked one. *)
      terms_rev := (Queue.peek c.pending, u) :: !terms_rev
    else if b = byte_ack || b = byte_drop then begin
      let tag = Queue.pop c.pending in
      decr outstanding;
      if tag >= 0 then
        if b = byte_ack then incr deliveries else incr drops
    end
    else if b = byte_err then fail "a node program raised"
    else fail (Printf.sprintf "unexpected opcode %#x from node %d" b u)
  in
  let buf = Bytes.create 4096 in
  let all_fds = Array.to_list (Array.map (fun c -> c.fd) children) in
  let has_flights () = match !flights with [] -> false | _ :: _ -> true in
  (* Block up to [timeout] for child bytes and process them. *)
  let read_ready timeout =
    let readable, _, _ = Unix.select all_fds [] [] timeout in
    List.iter
      (fun fd ->
        let u =
          let rec find i = if children.(i).fd == fd then i else find (i + 1) in
          find 0
        in
        let r =
          try Unix.read fd buf 0 (Bytes.length buf)
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> 0
        in
        if r = 0 then exited u;
        for i = 0 to r - 1 do
          on_child_byte u (Char.code (Bytes.get buf i))
        done)
      readable
  in
  (* Main loop: forward due pulses, then block on child bytes until
     the next pulse is due (or the watchdog fires). *)
  while (not !exhausted) && (!outstanding > 0 || has_flights ()) do
    let now = Unix.gettimeofday () in
    if now -. t0 > deadline_s then fail "deadline exceeded (wedged run?)";
    let rec drain () =
      match pop_due !flights (Unix.gettimeofday ()) with
      | Some (f, rest) ->
          flights := rest;
          forward f;
          drain ()
      | None -> ()
    in
    drain ();
    if !outstanding > 0 || has_flights () then begin
      let timeout =
        match next_due !flights with
        | None -> 0.25
        | Some due -> Float.max 0. (Float.min 0.25 (due -. Unix.gettimeofday ()))
      in
      if !outstanding > 0 then read_ready timeout
      else if timeout > 0. then
        (* Nothing to read — just wait out the next delay. *)
        Unix.sleepf timeout
    end
  done;
  (* Exhausted runs still owe the children a clean shutdown: drain the
     in-progress activations so the stop opcode is unambiguous (a
     child never blocks for long — fault delays live up here). *)
  (if !exhausted then
     let give_up = Unix.gettimeofday () +. 5. in
     while !outstanding > 0 do
       if Unix.gettimeofday () > give_up then fail "exhausted run won't drain";
       read_ready 0.05
     done);
  (* Stop everyone and collect reports. *)
  Array.iteri (fun u _ -> to_child u byte_stop) children;
  Array.iter
    (fun c ->
      let b = Bytes.create report_len in
      (try read_exactly c.fd b 0 report_len
       with e ->
         kill_children children;
         raise e);
      c.report <- Some (decode_report b))
    children;
  Array.iter
    (fun c ->
      Unix.close c.fd;
      ignore (Unix.waitpid [] c.pid))
    children;
  let report v =
    match children.(v).report with
    | Some r -> r
    | None -> assert false (* filled above *)
  in
  let outputs = Array.init n (fun v -> let o, _, _, _ = report v in o) in
  let sends =
    Array.to_list (Array.init n (fun v -> let _, _, s, _ = report v in s))
    |> List.fold_left ( + ) 0
  in
  let backlog =
    Array.to_list (Array.init n (fun v -> let _, _, _, b = report v in b))
    |> List.fold_left ( + ) 0
  in
  let all_terminated =
    Array.for_all
      (fun c ->
        match c.report with Some (_, t, _, _) -> t | None -> false)
      children
  in
  let terms =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.rev !terms_rev)
  in
  {
    Transport.backend = (if tcp then "socket-tcp" else "socket");
    scheduler = (if tcp then "socket-tcp-live" else "socket-live");
    n;
    schedule = Transport.recorded sched;
    outputs;
    sends;
    deliveries = !deliveries;
    drops = !drops;
    quiescent =
      (not !exhausted)
      && (match !flights with [] -> true | _ :: _ -> false)
      && backlog = 0;
    all_terminated;
    exhausted = !exhausted;
    termination_order = List.map snd terms;
  }

(* A write to a child that has died raises EPIPE instead of killing
   the coordinator's process with SIGPIPE. *)
let run ?(seed = 0) ?(max_deliveries = 50_000_000)
    ?(faults = Transport.no_fault) ?(tcp = false) topo make_program =
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
    (fun () -> run_ring ~seed ~max_deliveries ~faults ~tcp topo make_program)

let transport ?(tcp = false) () =
  {
    Transport.name = (if tcp then "socket-tcp" else "socket");
    run =
      (fun ?seed ?max_deliveries ?faults topo make_program ->
        run ?seed ?max_deliveries ?faults ~tcp topo make_program);
  }
