(* backend-live: sequential [Backend.elect] calls for Algorithm 2 on an
   oriented ring of n = 4, replay verification included.  Each round
   is one socket election in this process, then one domains election
   in a child process: the socket backend forks, and a process cannot
   fork once it has spawned a domain.  n = 4 keeps the node threads
   near the core count. *)

open Colring_engine
open Common
module Backend = Colring_transport.Backend
module Election = Colring_core.Election
module Ids = Colring_core.Ids
module Rng = Colring_stats.Rng

let n = 4
let pool = 256

type input = { seed : int; ids : int array }

let inputs ~seed =
  let base = Rng.create ~seed in
  Array.init pool (fun k ->
      let rng = Rng.split_at base k in
      { seed = Rng.bits rng 30; ids = Ids.distinct rng ~n ~id_max:(2 * n) })

let line verb i =
  String.concat " "
    (verb :: string_of_int i.seed
    :: Array.to_list (Array.map string_of_int i.ids))

let input_of_words = function
  | seed :: ids ->
      {
        seed = int_of_string seed;
        ids = Array.of_list (List.map int_of_string ids);
      }
  | [] -> invalid_arg "backend-live: empty request"

(* One verified election: live deliveries and verdict.  A run that
   raises (a socket election that cannot fork, say) is a failed
   operation, not a skipped one. *)
let elect spec i =
  match
    Backend.elect ~seed:i.seed spec Election.Algo2 ~topo:(Topology.oriented n)
      ~ids:i.ids
  with
  | r ->
      ( r.Backend.live.Transport.deliveries,
        r.Backend.verified && Election.ok r.Backend.report )
  | exception ((Failure _ | Invalid_argument _ | Unix.Unix_error _) as e) ->
      (* stderr: in the domains child, stdout is the reply channel. *)
      Printf.eprintf "backend-live: %s election raised %s\n%!"
        (Backend.name spec) (Printexc.to_string e);
      (0, false)

(* The three transport calls [Backend.elect] makes, timed apart: the
   live run, its replay on the simulator, and the equivalence check. *)
let split (t : Transport.t) i =
  let topo = Topology.oriented n in
  let progs v = Election.program_of Election.Algo2 ~id:i.ids.(v) in
  let t0 = now_ns () in
  let live = t.Transport.run ~seed:i.seed topo progs in
  let t1 = now_ns () in
  let replay = Transport.replay ~seed:i.seed live topo progs in
  let t2 = now_ns () in
  let ok = Transport.equivalent live replay in
  let t3 = now_ns () in
  let s a b = float_of_int (b - a) *. 1e-9 in
  (s t0 t1, s t1 t2, s t2 t3, ok)

let spawn_join () =
  let t0 = now_ns () in
  List.iter Domain.join (List.init n (fun _ -> Domain.spawn ignore));
  since_s t0

(* The domains child: one request line in, one reply line out. *)
let child_main () =
  let reply fmt = Printf.printf (fmt ^^ "\n%!") in
  try
    while true do
      match String.split_on_char ' ' (input_line stdin) with
      | "elect" :: words ->
          let d, ok = elect Backend.Domains (input_of_words words) in
          reply "%d %b" d ok
      | "trace" :: words ->
          let live, replay, verify, ok =
            split (Colring_transport.Domains.transport ()) (input_of_words words)
          in
          reply "%.9f %.9f %.9f %b" live replay verify ok
      | [ "spawn" ] -> reply "%.9f" (spawn_join ())
      | [ "heap" ] -> reply "%.9f" (heap_mb ())
      | _ -> reply "error"
    done
  with End_of_file -> exit 0

type child = { pid : int; ic : in_channel; oc : out_channel }

let spawn_child () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--domains-child" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    ic = Unix.in_channel_of_descr out_r;
    oc = Unix.out_channel_of_descr in_w;
  }

let ask c req =
  output_string c.oc (req ^ "\n");
  flush c.oc;
  input_line c.ic

let close_child c =
  close_out c.oc;
  (try ignore (input_line c.ic) with End_of_file -> ());
  close_in c.ic;
  ignore (Unix.waitpid [] c.pid)

let ask_elect c i =
  Scanf.sscanf (ask c (line "elect" i)) "%d %B" (fun d ok -> (d, ok))

let run ~seed ~seconds ?max_ops () =
  let (child, inp), setup =
    repeated_setup ~reps:9
      ~dispose:(fun (c, _) -> close_child c)
      (fun () ->
        let inp = inputs ~seed in
        let c = spawn_child () in
        ignore (elect (Backend.Socket { tcp = false }) inp.(0));
        ignore (ask_elect c inp.(0));
        (c, inp))
  in
  let heap () = Float.max (heap_mb ()) (float_of_string (ask child "heap")) in
  let r =
    closed_rounds ~label:"backend-live" ~seconds ?max_ops ~setup ~heap
      (fun k ->
        let i = inp.(k mod pool) in
        let ds, oks = elect (Backend.Socket { tcp = false }) i in
        let dd, okd = ask_elect child i in
        two_elections (ds + dd, Bool.to_int (not oks) + Bool.to_int (not okd)))
  in
  close_child child;
  r

(* ------------------------------------------------------------------ *)
(* Transport layers: [Transport.t.run], [Transport.replay] and
   [Transport.equivalent] called apart, on both live backends, plus
   the bare cost of spawning and joining n empty domains. *)

let trace ~seed ~seconds =
  say "transport layers (Socket, Domains, replay) on backend-live inputs";
  let inp = inputs ~seed in
  let child = spawn_child () in
  let live_s = ref [] and live_d = ref [] and replay = ref [] in
  let verify = ref [] and failed = ref 0 in
  let record live_list (live, rp, vf, ok) =
    live_list := (live *. 1e3) :: !live_list;
    replay := (rp *. 1e3) :: !replay;
    verify := (vf *. 1e6) :: !verify;
    if not ok then incr failed
  in
  let socket = Colring_transport.Socket.transport () in
  let k1, _ =
    timed_loop ~seconds:(seconds /. 2.) (fun k ->
        record live_s (split socket inp.(k mod pool)))
  in
  let k2, _ =
    timed_loop ~seconds:(seconds /. 2.) (fun k ->
        record live_d
          (Scanf.sscanf
             (ask child (line "trace" inp.(k mod pool)))
             "%f %f %f %B"
             (fun a b c d -> (a, b, c, d))))
  in
  let spawns =
    Array.init 21 (fun _ -> float_of_string (ask child "spawn") *. 1e6)
  in
  close_child child;
  let arr l = Array.of_list !l in
  ( k1 + k2,
    !failed,
    [
      summary "transport.socket_live_ms" "ms" (arr live_s);
      summary "transport.domains_live_ms" "ms" (arr live_d);
      summary "transport.replay_ms" "ms" (arr replay);
      summary "transport.verify_us" "us" (arr verify);
      summary "domains.spawn_join_us" "us" spawns;
    ] )
