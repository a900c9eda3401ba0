(* Fixture: un-manifested shared-state mutation inside domain-spawned
   code.  Linted "as" a lib/ path by test_lint; never compiled. *)

type counter = { mutable count : int }

let c = { count = 0 }
let tally = Array.make 8 0

(* A closure handed straight to the pool: writes a module-level array
   and writes + reads a mutable field, none of it manifested. *)
let go jobs =
  Pool.run ~jobs 8 (fun i ->
      tally.(i) <- i;
      c.count <- c.count + 1)

(* A call on a long-lived pool is patrolled the same way. *)
let go_on pool = Pool.exec pool 8 (fun i -> tally.(i) <- i)

(* Reached through the unit call graph, not the literal closure: the
   spawned closure calls [helper], whose [Bytes] write on a parameter
   must still be flagged. *)
let helper buf = Bytes.set buf 0 'x'
let indirect buf = Domain.spawn (fun () -> helper buf)
