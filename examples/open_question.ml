(* The paper's closing open question, §7: does content-oblivious leader
   election extend from rings to general 2-edge-connected networks?

   Run with:  dune exec examples/open_question.exe

   Chang, Chen and Zhou answered it (arXiv:2507.08348) with a walk
   election, implemented in Gelection and measured by bench E18.  This
   example (1) checks the 2-edge-connectivity precondition on a few
   graphs, (2) cross-validates the ring algorithms on the independent
   multi-port simulator, and (3) shows with the model checker that the
   naive generalization of the ring relay rule quiesces but fails to
   elect — why the answer needed new ideas. *)

open Colring_engine
open Colring_core
open Colring_graph
module Rng = Colring_stats.Rng

let () =
  Printf.printf
    "1. [8]'s precondition: non-trivial content-oblivious computation\n\
    \   needs 2-edge connectivity (no bridges):\n";
  List.iter
    (fun (name, g) ->
      Printf.printf "   %-22s bridges: %-12s 2-edge-connected: %b\n" name
        (match Gtopology.bridges g with
        | [] -> "none"
        | bs ->
            String.concat ","
              (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) bs))
        (Gtopology.is_two_edge_connected g))
    [
      ("ring(6)", Gtopology.ring 6);
      ("theta(1,2,3)", Gtopology.theta 1 2 3);
      ( "barbell",
        Gtopology.of_edges ~n:6
          [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ] );
    ];

  Printf.printf
    "\n2. Sanity: Algorithm 3 run on the ring-as-graph (independent\n\
    \   simulator) reproduces Theorem 2 exactly:\n";
  let ids = [| 6; 2; 11; 5; 8 |] in
  let g = Gtopology.ring 5 in
  let net =
    Gnetwork.create g (fun v ->
        Circulate.algo3_deg2 ~scheme:Algo3.Improved ~id:ids.(v))
  in
  let r = Gnetwork.run net (Scheduler.random (Rng.create ~seed:2)) in
  Printf.printf "   pulses %d = n(2*ID_max+1) = %d; leader node %d (id 11)\n"
    r.Gnetwork.sends
    (Formulas.algo3_improved_total ~n:5 ~id_max:11)
    (let l = ref (-1) in
     Array.iteri
       (fun v (o : Output.t) ->
         if Output.equal_role o.role Output.Leader then l := v)
       (Gnetwork.outputs net);
     !l);
  assert (r.Gnetwork.sends = Formulas.algo3_improved_total ~n:5 ~id_max:11);

  Printf.printf
    "\n3. A naive generalization (forward on the next port, absorb every\n\
    \   ID-th pulse) on theta(0,1,1), ids [2;4;1;3], every schedule:\n";
  let module Mc = Colring_mc.Mc in
  let spec = Colring_mc.Spec.rotor_ablation ~ids:[| 2; 4; 1; 3 |] in
  let r = Mc.check spec in
  (match r.Mc.counterexample with
  | None -> assert false
  | Some ce ->
      Printf.printf
        "   %d states; a %d-delivery schedule quiesces with %s\n\
        \   (replay-confirmed: %b)\n"
        r.Mc.stats.Mc.states (Array.length ce.Mc.schedule) ce.Mc.violation
        (Mc.confirm spec ce);
      assert (Mc.confirm spec ce));
  Printf.printf
    "\n   Quiescence survives the generalization; the election property\n\
    \   does not.\n"
