open Colring_engine
module Rng = Colring_stats.Rng
module Invariants = Colring_core.Invariants

type verdict = {
  samples : int;
  transitions : int;
  violations : string list;
}

let ok v = match v.violations with [] -> true | _ :: _ -> false

(* Uniform enabled link, enumerated through [enabled_link ~after] so
   the draw allocates nothing. *)
let random_enabled rng net =
  let count = Network.enabled_count net in
  if count = 0 then None
  else begin
    let idx = Rng.int rng count in
    let link = ref (Network.enabled_link net ~after:(-1)) in
    for _ = 1 to idx do
      link := Network.enabled_link net ~after:!link
    done;
    Some !link
  end

(* Random-walk sampler with one-step closure: at every state along the
   walk, [state_inv net] is evaluated on the state itself AND — when
   [closure] and the engine supports undo — on every one-step
   successor, which is visited with [force_step_undo] and rolled back
   with [undo_step].  A violation in a successor of an
   invariant-satisfying state is exactly a failure of the inductive
   step, reported as such. *)
let walk_sample ~mk ~state_inv ~closure ~seed ~walks ~max_steps =
  let samples = ref 0 in
  let transitions = ref 0 in
  let violations = ref [] in
  let record msg = violations := msg :: !violations in
  for w = 0 to walks - 1 do
    let rng = Rng.create ~seed:(seed + (7919 * w)) in
    let net = mk () in
    let steps = ref 0 in
    let walking = ref true in
    while !walking && !steps < max_steps do
      incr samples;
      let here_ok =
        match state_inv net with
        | None -> true
        | Some msg ->
            record (Printf.sprintf "walk %d step %d: %s" w !steps msg);
            false
      in
      if closure && here_ok then begin
        (* Inductive step: every successor of a good state is good. *)
        let link = ref (Network.enabled_link net ~after:(-1)) in
        while !link >= 0 do
          let u = Network.force_step_undo net ~link:!link in
          incr transitions;
          (match state_inv net with
          | None -> ()
          | Some msg ->
              record
                (Printf.sprintf
                   "walk %d step %d: successor via link %d breaks: %s" w !steps
                   !link msg));
          Network.undo_step net u;
          link := Network.enabled_link net ~after:!link
        done
      end;
      match random_enabled rng net with
      | None -> walking := false
      | Some link ->
          Network.force_step net ~link;
          incr steps
    done
  done;
  {
    samples = !samples;
    transitions = !transitions;
    violations = List.rev !violations;
  }

(* --- Algorithms 1/2: the paper's lemma probes over random walks ---- *)

let lemma_walk ~program ~ids ~seed ~walks ~max_steps =
  let n = Array.length ids in
  let samples = ref 0 in
  let violations = ref [] in
  for w = 0 to walks - 1 do
    let rng = Rng.create ~seed:(seed + (7919 * w)) in
    let topo = Topology.oriented n in
    let net = Network.create topo (fun v -> program ~id:ids.(v)) in
    let checker = Invariants.attach net ~ids in
    let steps = ref 0 in
    let walking = ref true in
    while !walking && !steps < max_steps do
      incr samples;
      Invariants.probe checker ~step:!steps;
      match random_enabled rng net with
      | None -> walking := false
      | Some link ->
          Network.force_step net ~link;
          incr steps
    done;
    List.iter
      (fun v ->
        violations :=
          Format.asprintf "walk %d: %a" w Invariants.pp_violation v
          :: !violations)
      (Invariants.violations checker)
  done;
  { samples = !samples; transitions = 0; violations = List.rev !violations }

let algo1 ~ids ~seed ~walks ~max_steps =
  lemma_walk ~program:Colring_core.Algo1.program ~ids ~seed ~walks ~max_steps

let algo2 ~ids ~seed ~walks ~max_steps =
  lemma_walk ~program:Colring_core.Algo2.program ~ids ~seed ~walks ~max_steps

(* --- Chang–Roberts: the [btw] relation as a one-step-closed
   invariant --------------------------------------------------------- *)

(* A candidate token carrying id [c], about to be received by node [w],
   witnesses that it survived every node it crossed: writing [o] for
   the owner of [c], every node strictly clockwise-between [o] and [w]
   has a smaller id — the classical [btw] relation.  An announcement
   must carry the maximum id.  Both are pure state predicates over the
   channels and mailboxes, so they are closed under delivery iff the
   algorithm is correct; [chang_roberts] checks exactly that closure on
   sampled reachable states. *)
let btw_violation ~ids ~topo net =
  let n = Array.length ids in
  let id_max = Array.fold_left max ids.(0) ids in
  let owner = Hashtbl.create n in
  Array.iteri (fun v id -> Hashtbl.replace owner id v) ids;
  let cw_next v = Topology.cw_neighbor topo v in
  let check_msg ~w msg =
    match msg with
    | Colring_classic.Chang_roberts.Announce e ->
        if e = id_max then None
        else Some (Printf.sprintf "Announce %d in transit but max id is %d" e id_max)
    | Colring_classic.Chang_roberts.Candidate c -> (
        match Hashtbl.find_opt owner c with
        | None -> Some (Printf.sprintf "Candidate %d owned by no node" c)
        | Some o ->
            let bad = ref None in
            let u = ref (cw_next o) in
            while !u <> w && Option.is_none !bad do
              if ids.(!u) >= c then
                bad :=
                  Some
                    (Printf.sprintf
                       "Candidate %d heading to node %d passed node %d with id \
                        %d >= %d"
                       c w !u ids.(!u) c);
              u := cw_next !u
            done;
            !bad)
  in
  let result = ref None in
  (* In-flight messages: their next receiver is the link's endpoint. *)
  for link = 0 to Topology.num_links topo - 1 do
    if Option.is_none !result then
      let w, _ = Topology.link_dst topo link in
      Array.iter
        (fun msg ->
          if Option.is_none !result then result := check_msg ~w msg)
        (Network.channel_payloads net ~link)
  done;
  (* Delivered-but-unconsumed messages sit in the receiver's mailbox. *)
  for w = 0 to n - 1 do
    if Option.is_none !result then
      List.iter
        (fun port ->
          Array.iter
            (fun msg ->
              if Option.is_none !result then result := check_msg ~w msg)
            (Network.mailbox_payloads net ~node:w ~port))
        [ 0; 1 ]
  done;
  !result

let chang_roberts ~ids ~seed ~walks ~max_steps =
  let n = Array.length ids in
  let topo = Topology.oriented n in
  let mk () =
    Network.create_with ~carry:Payloads topo (fun v ->
        Colring_classic.Chang_roberts.program ~id:ids.(v))
  in
  walk_sample ~mk
    ~state_inv:(btw_violation ~ids ~topo)
    ~closure:true ~seed ~walks ~max_steps
