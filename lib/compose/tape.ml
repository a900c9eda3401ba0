open Colring_engine

(* Clockwise pulses leave via port 1 and arrive on port 0 (oriented
   rings). *)

type session = {
  api : Network.pulse Network.api;
  is_root : bool;
  mutable n : int;
  mutable dist : int;
  mutable turn : int;
  mutable symbols : int;
  mutable batons : int;
}

let api s = s.api
let n s = s.n
let distance s = s.dist
let is_root s = s.is_root
let turn s = s.turn
let my_turn s = s.turn = s.dist

let write_symbol s bit =
  if not (my_turn s) then failwith "Tape.write_symbol: not this node's turn";
  s.symbols <- s.symbols + 1;
  if bit then begin
    (* 1 = counterclockwise circle: out port 0, back on port 1. *)
    s.api.send 0 ();
    Blocking.recv 1
  end
  else begin
    s.api.send 1 ();
    Blocking.recv 0
  end

let read_symbol s =
  s.symbols <- s.symbols + 1;
  match Blocking.recv_any () with
  | 0 ->
      (* Clockwise pulse: relay onward clockwise; symbol 0. *)
      s.api.send 1 ();
      false
  | _ ->
      s.api.send 0 ();
      true

let pass_turn s =
  s.batons <- s.batons + 1;
  let next = (s.turn + 1) mod s.n in
  if s.dist = s.turn then s.api.send 1 () (* hand the baton CW *)
  else if s.dist = next then Blocking.recv 0 (* absorb the baton *);
  s.turn <- next

let write_value s v =
  List.iter (write_symbol s) (Codec.encode_value v)

let read_value s = Codec.decode_value ~next:(fun () -> read_symbol s)

let rotate_to s writer =
  if writer < 0 || writer >= s.n then invalid_arg "Tape: bad writer";
  while s.turn <> writer do
    pass_turn s
  done

let bcast s ~writer ~value =
  rotate_to s writer;
  if s.dist = writer then begin
    write_value s value;
    value
  end
  else read_value s

let all_gather s ~value =
  Array.init s.n (fun d -> bcast s ~writer:d ~value)

let write_string s text =
  write_value s (String.length text);
  String.iter (fun ch -> write_value s (Char.code ch)) text

let read_string s =
  (* Explicit loop: reads are effectful and must happen in order. *)
  let len = read_value s in
  let buf = Buffer.create len in
  for _ = 1 to len do
    Buffer.add_char buf (Char.chr (read_value s land 255))
  done;
  Buffer.contents buf

let symbols_on_tape s = s.symbols
let batons_seen s = s.batons

(* ------------------------------------------------------------------ *)
(* Enumeration (see the .mli header for the protocol). *)

let establish_root s =
  s.api.send 1 ();
  (* the baton starts its tour *)
  s.batons <- s.batons + 1;
  let ann = ref 0 in
  let rec loop () =
    match Blocking.recv_any () with
    | 1 ->
        (* An announcement passing through: relay counterclockwise. *)
        incr ann;
        s.symbols <- s.symbols + 1;
        s.api.send 0 ();
        loop ()
    | _ -> s.batons <- s.batons + 1 (* the baton came home *)
  in
  loop ();
  s.n <- !ann + 1;
  s.dist <- 0;
  s.turn <- 0;
  if s.n > 1 then
    (* gamma (n+1) starts with a 0 (clockwise) symbol because n+1 >= 3,
       which is how readers detect that announcements are over. *)
    write_value s s.n

let establish_other s =
  let ann = ref 0 in
  (* Pre-baton: relay announcements of the nodes before us. *)
  let rec pre () =
    match Blocking.recv_any () with
    | 1 ->
        incr ann;
        s.symbols <- s.symbols + 1;
        s.api.send 0 ();
        pre ()
    | _ -> s.batons <- s.batons + 1 (* the baton: absorbed *)
  in
  pre ();
  s.dist <- !ann + 1;
  (* Announce ourselves with one counterclockwise circle. *)
  s.symbols <- s.symbols + 1;
  s.api.send 0 ();
  Blocking.recv 1;
  (* Pass the baton clockwise. *)
  s.batons <- s.batons + 1;
  s.api.send 1 ();
  (* Post-baton: later announcements, then the root's gamma(n+1), whose
     first symbol is the first clockwise pulse we see. *)
  let rec skip_announcements () =
    match Blocking.recv_any () with
    | 1 ->
        s.symbols <- s.symbols + 1;
        s.api.send 0 ();
        skip_announcements ()
    | _ ->
        (* First zero of gamma(n+1): relay it. *)
        s.symbols <- s.symbols + 1;
        s.api.send 1 ()
  in
  skip_announcements ();
  let rec zeros z = if read_symbol s then z else zeros (z + 1) in
  let z = zeros 1 in
  let rec bits acc k =
    if k = 0 then acc
    else bits ((acc lsl 1) lor (if read_symbol s then 1 else 0)) (k - 1)
  in
  let encoded = bits 1 z in
  s.n <- encoded - 1;
  s.turn <- 0

let establish api ~is_root =
  let s = { api; is_root; n = -1; dist = -1; turn = -1; symbols = 0; batons = 0 } in
  if is_root then establish_root s else establish_other s;
  s
