(* The experiment harness: one table per claim of the paper (see
   DESIGN.md section 4 and EXPERIMENTS.md).  Every table prints the
   paper's closed form next to the measured value; agreement columns
   are computed, not asserted, so the bench never aborts half-way. *)

open Colring_engine
open Colring_core
open Colring_stats
module Classic = Colring_classic
module Compose = Colring_compose
module LB = Colring_lowerbound

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n\n"

let sched_of_seed seed = Scheduler.random (Rng.create ~seed)

let yes_no = Table.cell_bool

(* Print a finished table and, when a journal sink is attached, emit
   one [row] record per data row, keyed by the column headers.  The
   journal carries the rendered cell strings, so `jq` can rebuild
   exactly what the table showed (README has the recipe). *)
let print_table ~sink ~name t =
  Table.print t;
  if sink.Sink.enabled then begin
    let header = Table.header t in
    List.iter
      (fun cells ->
        sink.Sink.on_row ~table:name
          (List.map2 (fun h c -> (h, Sink.String c)) header cells))
      (Table.data_rows t)
  end

module Pool = Colring_runtime.Pool

(* Independent table rows (or trials) are computed on the domain pool,
   then appended in case order, so a table is bit-identical for every
   domain count; only row *computations* run in parallel — nothing in a
   parallel closure may print. *)
let par_rows ~jobs cases f =
  let a = Array.of_list cases in
  Array.to_list (Pool.map ~jobs (Array.length a) (fun i -> f a.(i)))

(* ------------------------------------------------------------------ *)
(* E1: Algorithm 1 — n * ID_max pulses, stabilization (Cor. 13). *)

let e1 ~sink ~jobs ~quick =
  section
    "E1  Algorithm 1 (warm-up, oriented, stabilizing)  --  paper: total = n*ID_max\n\
     [Section 3.1, Lemmas 6-14, Corollary 13]";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("ids", Table.Left);
        ("paper", Table.Right);
        ("measured", Table.Right);
        ("ratio", Table.Right);
        ("quiescent", Table.Left);
        ("max elected", Table.Left);
        ("rho=sig=IDmax", Table.Left);
      ]
  in
  let row ~ids ~label seed =
    let n = Array.length ids in
    let topo = Topology.oriented n in
    let report, net =
      Election.run Election.Algo1 ~topo ~ids ~sched:(sched_of_seed seed)
    in
    let id_max = Ids.id_max ids in
    let counters_ok =
      Array.for_all
        (fun v ->
          Network.inspect_counter net v "rho_cw" = id_max
          && Network.inspect_counter net v "sigma_cw" = id_max)
        (Array.init n Fun.id)
    in
    ( [
        Table.cell_int n;
        Table.cell_int id_max;
        label;
        Table.cell_int report.expected_sends;
        Table.cell_int report.sends;
        Table.cell_ratio
          (float_of_int report.sends /. float_of_int report.expected_sends);
        yes_no report.quiescent;
        yes_no (report.leader_is_max && report.roles_ok);
        yes_no counters_ok;
      ],
      (float_of_int report.expected_sends, float_of_int report.sends) )
  in
  let ns = if quick then [ 2; 8; 32 ] else [ 2; 4; 8; 16; 32; 64; 128 ] in
  let dense_rows =
    par_rows ~jobs ns (fun n ->
        row ~ids:(Ids.dense (Rng.create ~seed:n) ~n) ~label:"dense 1..n" n)
  in
  let idmaxes = if quick then [ 64; 1024 ] else [ 16; 64; 256; 1024; 4096 ] in
  let sparse_rows =
    par_rows ~jobs idmaxes (fun id_max ->
        row
          ~ids:(Ids.distinct (Rng.create ~seed:id_max) ~n:16 ~id_max)
          ~label:"sparse n=16" id_max)
  in
  List.iter (fun (cells, _) -> Table.add_row t cells) dense_rows;
  Table.add_rule t;
  List.iter (fun (cells, _) -> Table.add_row t cells) sparse_rows;
  print_table ~sink ~name:"e1" t;
  Printf.printf "max relative error vs paper formula: %.6f\n"
    (Fit.max_rel_err (List.map snd (dense_rows @ sparse_rows)))

(* Lemma 16/17: duplicated IDs, including several copies of the max. *)
let e1_dup ~sink ~jobs ~quick =
  section
    "E1b Algorithm 1 with non-unique IDs  --  paper: Lemma 16/17 (same totals;\n\
     every max-ID node ends Leader)";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("#max copies", Table.Right);
        ("paper", Table.Right);
        ("measured", Table.Right);
        ("leaders = #copies", Table.Left);
        ("quiescent", Table.Left);
      ]
  in
  let cases = if quick then [ (8, 12, 2) ] else [ (8, 12, 2); (16, 40, 4); (32, 32, 8); (24, 100, 1) ] in
  par_rows ~jobs cases (fun (n, id_max, dup_max) ->
      let ids = Ids.duplicated (Rng.create ~seed:n) ~n ~id_max ~dup_max in
      let topo = Topology.oriented n in
      let _, net =
        Election.run Election.Algo1 ~topo ~ids ~sched:(sched_of_seed (n + 1))
      in
      let leaders =
        Array.fold_left
          (fun acc (o : Output.t) ->
            if Output.equal_role o.role Output.Leader then acc + 1 else acc)
          0 (Network.outputs net)
      in
      [
        Table.cell_int n;
        Table.cell_int id_max;
        Table.cell_int dup_max;
        Table.cell_int (n * id_max);
        Table.cell_int (Metrics.sends (Network.metrics net));
        yes_no (leaders = dup_max);
        yes_no (Network.is_quiescent net);
      ])
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e1b" t

(* ------------------------------------------------------------------ *)
(* E2: Algorithm 2 — n(2 ID_max + 1), quiescent termination (Thm 1). *)

let e2 ~sink ~jobs ~quick =
  section
    "E2  Algorithm 2 (oriented, quiescently terminating)  --  paper:\n\
     total = n(2*ID_max+1), split n*ID_max cw / n*(ID_max+1) ccw,\n\
     unique max-ID leader, leader terminates last, zero pulses after any\n\
     termination  [Section 3.2, Theorem 1]";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("scheduler", Table.Left);
        ("paper", Table.Right);
        ("measured", Table.Right);
        ("cw", Table.Right);
        ("ccw", Table.Right);
        ("verdicts", Table.Left);
      ]
  in
  let verdict (r : Election.report) =
    if Election.ok r then "all-ok"
    else
      String.concat ","
        (List.filter_map Fun.id
           [
             (if r.sends <> r.expected_sends then Some "count" else None);
             (if not r.quiescent then Some "quiescence" else None);
             (if not r.leader_is_max then Some "leader" else None);
             (if r.termination_order_ok <> Some true then Some "order" else None);
             (if r.post_term_deliveries > 0 then Some "post-term" else None);
           ])
  in
  let row ~n ~id_max ~sched ~seed =
    let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max in
    let r =
      Election.run_report Election.Algo2 ~topo:(Topology.oriented n) ~ids ~sched
    in
    [
      Table.cell_int n;
      Table.cell_int id_max;
      sched.Scheduler.name;
      Table.cell_int r.expected_sends;
      Table.cell_int r.sends;
      Table.cell_int r.sends_cw;
      Table.cell_int r.sends_ccw;
      verdict r;
    ]
  in
  let ns = if quick then [ 4; 16 ] else [ 2; 4; 8; 16; 32; 64; 128 ] in
  par_rows ~jobs ns (fun n ->
      row ~n ~id_max:(2 * n) ~sched:(sched_of_seed n) ~seed:n)
  |> List.iter (Table.add_row t);
  Table.add_rule t;
  (* The count is schedule-independent: same instance, many adversaries.
     Stateful schedulers are created once per case, used by one row. *)
  par_rows ~jobs
    (Scheduler.all_deterministic () @ [ sched_of_seed 123 ])
    (fun sched -> row ~n:12 ~id_max:48 ~sched ~seed:99)
  |> List.iter (Table.add_row t);
  Table.add_rule t;
  (* ID_max scaling at fixed n: the term the lower bound says is needed. *)
  let idmaxes = if quick then [ 256; 4096 ] else [ 16; 64; 256; 1024; 4096; 16384 ] in
  par_rows ~jobs idmaxes (fun id_max ->
      row ~n:8 ~id_max ~sched:(sched_of_seed id_max) ~seed:id_max)
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e2" t

(* ------------------------------------------------------------------ *)
(* E3/E4: Algorithm 3 on non-oriented rings. *)

let e3_e4 ~sink ~jobs ~quick =
  section
    "E3/E4  Algorithm 3 (non-oriented, stabilizing; elects leader AND\n\
     orients the ring)  --  paper: doubled IDs n(4*ID_max-1) (Prop. 15),\n\
     improved IDs n(2*ID_max+1) (Theorem 2)";
  let t =
    Table.create
      [
        ("scheme", Table.Left);
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("flips", Table.Right);
        ("paper", Table.Right);
        ("measured", Table.Right);
        ("ratio", Table.Right);
        ("oriented ok", Table.Left);
        ("max elected", Table.Left);
        ("quiescent", Table.Left);
      ]
  in
  let row scheme ~n ~seed =
    let rng = Rng.create ~seed in
    let ids = Ids.distinct rng ~n ~id_max:(3 * n) in
    let topo = Topology.random_non_oriented rng n in
    let flips =
      Array.fold_left
        (fun acc v -> if Topology.flipped topo v then acc + 1 else acc)
        0
        (Array.init n Fun.id)
    in
    let r =
      Election.run_report (Election.Algo3 scheme) ~topo ~ids
        ~sched:(Scheduler.random (Rng.split rng))
    in
    [
      (match scheme with
      | Algo3.Doubled -> "doubled (Prop15)"
      | Algo3.Improved -> "improved (Thm2)");
      Table.cell_int n;
      Table.cell_int r.id_max;
      Table.cell_int flips;
      Table.cell_int r.expected_sends;
      Table.cell_int r.sends;
      Table.cell_ratio (float_of_int r.sends /. float_of_int r.expected_sends);
      yes_no (r.orientation_ok = Some true);
      yes_no (r.leader_is_max && r.roles_ok);
      yes_no r.quiescent;
    ]
  in
  let ns = if quick then [ 4; 16 ] else [ 2; 4; 8; 16; 32; 64 ] in
  par_rows ~jobs ns (fun n -> row Algo3.Doubled ~n ~seed:n)
  |> List.iter (Table.add_row t);
  Table.add_rule t;
  par_rows ~jobs ns (fun n -> row Algo3.Improved ~n ~seed:(n + 7))
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e3_e4" t

(* ------------------------------------------------------------------ *)
(* E5: anonymous rings (Algorithm 4 + Algorithm 3; Theorem 3). *)

let e5 ~sink ~jobs ~quick =
  section
    "E5  Anonymous rings (Theorem 3, Lemma 18)  --  paper: sampled IDs have\n\
     a unique maximum w.h.p., of magnitude n^Theta(c); election succeeds\n\
     iff the maximum is unique; complexity n^O(1) pulses";
  let trials = if quick then 60 else 400 in
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("c", Table.Right);
        ("trials", Table.Right);
        ("unique-max rate", Table.Right);
        ("median ID_max", Table.Right);
        ("p90 ID_max", Table.Right);
        ("log2(IDmax)/log2(n)", Table.Right);
      ]
  in
  let ns = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128 ] in
  let cs = [ 1.0; 2.0; 3.0 ] in
  let grid = List.concat_map (fun n -> List.map (fun c -> (n, c)) cs) ns in
  par_rows ~jobs grid (fun (n, c) ->
      let unique = ref 0 in
      let idmaxes = Summary.create () in
      let exponents = Summary.create () in
      for seed = 1 to trials do
        let ids =
          Sampling.sample_ring (Rng.create ~seed:(seed + (n * 100_000))) ~c ~n
        in
        if Sampling.max_is_unique ids then incr unique;
        let m = Ids.id_max ids in
        Summary.add_int idmaxes m;
        Summary.add exponents (log (float_of_int m) /. log (float_of_int n))
      done;
      [
        Table.cell_int n;
        Table.cell_float ~decimals:1 c;
        Table.cell_int trials;
        Table.cell_ratio (float_of_int !unique /. float_of_int trials);
        Table.cell_float ~decimals:0 (Summary.median idmaxes);
        Table.cell_float ~decimals:0 (Summary.quantile idmaxes 0.9);
        Table.cell_float ~decimals:2 (Summary.mean exponents);
      ])
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e5_sampling" t;
  (* End-to-end elections on the feasible draws (pulse count is
     Theta(n * ID_max), so skip astronomically-large samples). *)
  let t2 =
    Table.create
      ~title:
        "End-to-end: Algorithm 4 sampling + Algorithm 3 (improved) on random\n\
         non-oriented anonymous rings (instances with ID_max <= 20000)"
      [
        ("n", Table.Right);
        ("c", Table.Right);
        ("runs", Table.Right);
        ("skipped(too big)", Table.Right);
        ("elected unique max", Table.Right);
        ("failed (max tie)", Table.Right);
        ("mean pulses", Table.Right);
        ("mean n(2IDmax+1)", Table.Right);
      ]
  in
  let trials2 = if quick then 30 else 100 in
  (* Per-trial engine runs are the heavy part here: fan the seeds out on
     the pool and fold the per-seed verdicts in seed order. *)
  List.iter
    (fun n ->
      List.iter
        (fun c ->
          let outcomes =
            par_rows ~jobs
              (List.init trials2 (fun i -> i + 1))
              (fun seed ->
                let rng = Rng.create ~seed:(seed + (n * 7919)) in
                let ids = Sampling.sample_ring rng ~c ~n in
                if Ids.id_max ids > 20_000 then `Skipped
                else begin
                  let topo = Topology.random_non_oriented rng n in
                  let r =
                    Election.run_report (Election.Algo3 Algo3.Improved) ~topo
                      ~ids
                      ~sched:(Scheduler.random (Rng.split rng))
                  in
                  `Ran
                    ( r.sends,
                      r.expected_sends,
                      Sampling.max_is_unique ids,
                      Election.ok r )
                end)
          in
          let ran = ref 0 and skipped = ref 0 and okc = ref 0 and ties = ref 0 in
          let pulses = Summary.create () and expected = Summary.create () in
          List.iter
            (function
              | `Skipped -> incr skipped
              | `Ran (sends, expected_sends, unique_max, ok) ->
                  incr ran;
                  Summary.add_int pulses sends;
                  Summary.add_int expected expected_sends;
                  if unique_max then begin
                    if ok then incr okc
                  end
                  else incr ties)
            outcomes;
          Table.add_row t2
            [
              Table.cell_int n;
              Table.cell_float ~decimals:1 c;
              Table.cell_int !ran;
              Table.cell_int !skipped;
              Table.cell_int !okc;
              Table.cell_int !ties;
              Table.cell_float ~decimals:0 (Summary.mean pulses);
              Table.cell_float ~decimals:0 (Summary.mean expected);
            ])
        [ 1.0 ])
    (if quick then [ 8 ] else [ 8; 16 ]);
  print_table ~sink ~name:"e5_end_to_end" t2

(* ------------------------------------------------------------------ *)
(* E9: Proposition 19 resampling. *)

let e9 ~sink ~jobs ~quick =
  section
    "E9  Proposition 19 (ID resampling during Algorithm 3)  --  paper:\n\
     at quiescence all IDs are distinct w.h.p.; pulse dynamics unchanged";
  let trials = if quick then 20 else 100 in
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("trials", Table.Right);
        ("all-distinct rate", Table.Right);
        ("count unchanged", Table.Left);
        ("max kept", Table.Left);
      ]
  in
  List.iter
    (fun (n, id_max) ->
      (* Per-trial resampling runs fan out on the pool; the verdicts
         fold associatively, so the reduce is order-insensitive. *)
      let verdicts =
        par_rows ~jobs
          (List.init trials (fun i -> i + 1))
          (fun seed ->
            let rng = Rng.create ~seed:(seed * 31) in
            let ids = Ids.distinct rng ~n ~id_max in
            let topo = Topology.random_non_oriented rng n in
            let r =
              Election.run_report Election.Algo3_resample ~topo ~ids
                ~sched:(Scheduler.random (Rng.split rng))
            in
            let sorted = Array.copy r.final_ids in
            Array.sort compare sorted;
            let dup = ref false in
            for i = 0 to n - 2 do
              if sorted.(i) = sorted.(i + 1) then dup := true
            done;
            (not !dup, r.sends = r.expected_sends, r.leader_is_max))
      in
      let distinct = ref 0 and counts_ok = ref true and max_ok = ref true in
      List.iter
        (fun (is_distinct, count_ok, is_max) ->
          if is_distinct then incr distinct;
          if not count_ok then counts_ok := false;
          if not is_max then max_ok := false)
        verdicts;
      Table.add_row t
        [
          Table.cell_int n;
          Table.cell_int id_max;
          Table.cell_int trials;
          Table.cell_ratio (float_of_int !distinct /. float_of_int trials);
          yes_no !counts_ok;
          yes_no !max_ok;
        ])
    (if quick then [ (8, 10_000) ] else [ (8, 10_000); (16, 50_000); (12, 500) ]);
  print_table ~sink ~name:"e9" t

(* ------------------------------------------------------------------ *)
(* E6: the lower bound (Theorem 4/20, Lemmas 22-24). *)

let e6 ~sink ~quick =
  section
    "E6  Lower bound (Theorem 20)  --  paper: any terminating content-\n\
     oblivious election sends >= n*floor(log2(k/n)) pulses when k IDs are\n\
     assignable.  We extract Algorithm 2's solitude patterns (Def. 21),\n\
     check Lemma 22 uniqueness, and compare the pigeonhole bound with the\n\
     algorithm's actual worst-case cost n(2k+1).";
  let kmax = if quick then 512 else 4096 in
  let algo2 ~id = Algo2.program ~id in
  let tagged = LB.Solitude.extract_range algo2 ~lo:1 ~hi:kmax in
  Printf.printf "solitude patterns extracted for IDs 1..%d\n" kmax;
  Printf.printf "Lemma 22 (all patterns distinct): %s\n\n"
    (match LB.Analysis.first_collision tagged with
    | None -> "holds"
    | Some (i, j) -> Printf.sprintf "VIOLATED by ids %d and %d" i j);
  let t =
    Table.create
      [
        ("k (IDs)", Table.Right);
        ("n", Table.Right);
        ("paper bound n*log(k/n)", Table.Right);
        ("pigeonhole on measured patterns", Table.Right);
        ("Algorithm 2 worst actual n(2k+1)", Table.Right);
        ("bound <= actual", Table.Left);
      ]
  in
  let ks = if quick then [ 64; 512 ] else [ 64; 256; 1024; 4096 ] in
  List.iter
    (fun k ->
      let pats =
        List.filter_map (fun (id, p) -> if id <= k then Some p else None) tagged
      in
      List.iter
        (fun n ->
          if n <= k then begin
            let formula = Formulas.lower_bound ~n ~k in
            let empirical = LB.Analysis.implied_message_bound pats ~n in
            let actual = Formulas.algo2_total ~n ~id_max:k in
            Table.add_row t
              [
                Table.cell_int k;
                Table.cell_int n;
                Table.cell_int formula;
                Table.cell_int empirical;
                Table.cell_int actual;
                yes_no (formula <= empirical && empirical <= actual);
              ]
          end)
        [ 1; 2; 4; 8; 16 ])
    ks;
  print_table ~sink ~name:"e6" t;
  Printf.printf
    "Note: the pigeonhole column uses the *measured* pattern set, so it can\n\
     exceed the closed-form floor; Theorem 20 only promises the floor.\n"

(* E6b: the constructive adversary replayed end to end. *)
let e6b ~sink ~quick =
  section
    "E6b Theorem 20 adversary, replayed  --  pick n IDs from [1..k] whose\n\
     solitude patterns share the longest prefix, assign them to the ring,\n\
     schedule in global send order: every node must then mimic its\n\
     solitude run for at least the shared-prefix length (the crux of the\n\
     proof), forcing >= n*prefix pulses.";
  let t =
    Table.create
      [
        ("k", Table.Right);
        ("n", Table.Right);
        ("chosen ids", Table.Left);
        ("shared prefix s", Table.Right);
        ("Cor.24 floor", Table.Right);
        ("forced bound n*s", Table.Right);
        ("run sends", Table.Right);
        ("solitude mimicry", Table.Left);
      ]
  in
  let cases =
    if quick then [ (64, 4) ] else [ (16, 2); (64, 4); (256, 8); (1024, 8) ]
  in
  List.iter
    (fun (k, n) ->
      let r = LB.Adversary.replay ~k ~n (fun ~id -> Algo2.program ~id) in
      Table.add_row t
        [
          Table.cell_int k;
          Table.cell_int n;
          (let shown = Array.to_list (Array.map string_of_int r.ids) in
           if List.length shown <= 6 then String.concat "," shown
           else String.concat "," (List.filteri (fun i _ -> i < 4) shown) ^ ",…");
          Table.cell_int r.shared_prefix;
          Table.cell_int r.formula_prefix;
          Table.cell_int r.bound;
          Table.cell_int r.sends;
          yes_no r.mimicry;
        ])
    cases;
  print_table ~sink ~name:"e6b" t

(* E10: ablations — remove one design ingredient, watch it break. *)
let e10 ~sink ~quick =
  section
    "E10 Ablations  --  each variant removes one ingredient the paper's\n\
     design discussion argues for; failure fraction over instances x\n\
     schedulers (the intact algorithms score 0).";
  let t =
    Table.create
      [
        ("variant", Table.Left);
        ("removed ingredient", Table.Left);
        ("failed runs", Table.Right);
        ("total runs", Table.Right);
        ("failure modes seen", Table.Left);
      ]
  in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let gauntlet factory ~oriented =
    let failures = ref 0 and runs = ref 0 in
    let modes = ref [] in
    List.iter
      (fun seed ->
        let ids = Ids.distinct (Rng.create ~seed) ~n:6 ~id_max:14 in
        let topo =
          if oriented then Topology.oriented 6
          else Topology.random_non_oriented (Rng.create ~seed:(seed + 50)) 6
        in
        List.iter
          (fun sched ->
            incr runs;
            let f = Ablation.observe factory ~topo ~ids ~sched in
            if Ablation.failed f then begin
              incr failures;
              let add m = if not (List.mem m !modes) then modes := m :: !modes in
              if f.wrong_leader then add "wrong/no leader";
              if f.not_quiescent then add "non-quiescent";
              if f.post_term_deliveries > 0 then add "post-term pulses";
              if f.exhausted then add "never stops"
            end)
          (Scheduler.all_deterministic ()
          @ [ Scheduler.random (Rng.create ~seed) ]))
      seeds;
    (!failures, !runs, String.concat ", " (List.rev !modes))
  in
  let row name ingredient factory ~oriented =
    let failures, runs, modes = gauntlet factory ~oriented in
    Table.add_row t
      [
        name;
        ingredient;
        Table.cell_int failures;
        Table.cell_int runs;
        (if modes = "" then "-" else modes);
      ]
  in
  row "algo2 (intact)" "-" (fun ~id -> Algo2.program ~id) ~oriented:true;
  row "algo2-no-lag" "CCW instance lag (Sec. 3.2)"
    (fun ~id -> Ablation.algo2_no_lag ~id)
    ~oriented:true;
  row "algo3 (intact)" "-"
    (fun ~id -> Algo3.program ~scheme:Algo3.Improved ~id)
    ~oriented:false;
  row "algo3-same-ids" "distinct directional maxima (Sec. 4)"
    (fun ~id -> Ablation.algo3_same_virtual_ids ~id)
    ~oriented:false;
  print_table ~sink ~name:"e10" t;
  (* Absorption ablation has a different failure shape: it simply never
     stops. *)
  let f =
    Ablation.observe ~max_deliveries:20_000
      (fun ~id -> Ablation.algo1_no_absorption ~id)
      ~topo:(Topology.oriented 6)
      ~ids:(Ids.dense (Rng.create ~seed:1) ~n:6)
      ~sched:Scheduler.fifo
  in
  Printf.printf
    "algo1-no-absorption (pulse removal at rho = ID removed): exhausted a\n\
     20000-delivery budget without quiescing: %s (Algorithm 1 needs every\n\
     node to delete exactly one pulse for the count to converge).\n"
    (yes_no f.exhausted);
  (* Model necessity: inject one spurious pulse into a healthy run. *)
  let ids = [| 4; 9; 2; 7; 5; 3 |] in
  let net =
    Network.create (Topology.oriented 6) (fun v -> Algo2.program ~id:ids.(v))
  in
  for _ = 1 to 12 do
    ignore (Network.step net Scheduler.fifo)
  done;
  Network.inject net ~node:0 ~port:Port.P1 ();
  let result = Network.run ~max_deliveries:100_000 net Scheduler.fifo in
  let leaders =
    Array.fold_left
      (fun acc (o : Output.t) ->
        if Output.equal_role o.role Output.Leader then acc + 1 else acc)
      0 (Network.outputs net)
  in
  Printf.printf
    "model necessity: injecting ONE spurious pulse mid-run (violating the\n\
     'channels cannot inject' assumption) left the run with %d leader(s),\n\
     quiescent=%s, post-termination pulses=%d — the counting argument is\n\
     destroyed, as the model section predicts.\n"
    leaders
    (yes_no result.quiescent)
    (Metrics.post_termination_deliveries (Network.metrics net))

(* ------------------------------------------------------------------ *)
(* E7: baseline landscape. *)

let e7 ~sink ~jobs ~quick =
  section
    "E7  Related-work landscape (Section 1.2)  --  message counts of the\n\
     classic content-carrying algorithms vs the content-oblivious ones.\n\
     paper positioning: O(n log n) (HS/Peterson) and O(n^2) (CR worst,\n\
     LeLann) with readable contents, vs Theta(n*ID_max) pulses without.";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("chang-roberts", Table.Right);
        ("cr worst", Table.Right);
        ("lelann", Table.Right);
        ("hirschberg-sinclair", Table.Right);
        ("peterson", Table.Right);
        ("franklin", Table.Right);
        ("itai-rodeh", Table.Right);
        ("algo2 IDmax=n", Table.Right);
        ("algo2 IDmax=n^2", Table.Right);
      ]
  in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let ns = if quick then [ 8; 32 ] else [ 4; 8; 16; 32; 64; 128 ] in
  let rows = par_rows ~jobs ns
    (fun n ->
      let avg f =
        let s = Summary.create () in
        List.iter (fun seed -> Summary.add_int s (f seed)) seeds;
        Summary.mean s
      in
      let topo = Topology.oriented n in
      let mk_ids seed = Ids.dense (Rng.create ~seed:(seed + n)) ~n in
      let cr =
        avg (fun seed ->
            let ids = mk_ids seed in
            (Classic.Driver.run ~name:"cr" ~expect_max:ids
               (fun v -> Classic.Chang_roberts.program ~id:ids.(v))
               ~topo ~sched:(sched_of_seed seed))
              .messages)
      in
      let cr_worst =
        let ids = Array.init n (fun v -> n - v) in
        (Classic.Driver.run ~name:"cr" ~expect_max:ids
           (fun v -> Classic.Chang_roberts.program ~id:ids.(v))
           ~topo ~sched:Scheduler.fifo)
          .messages
      in
      let ll =
        let ids = mk_ids 1 in
        (Classic.Driver.run ~name:"ll" ~expect_max:ids
           (fun v -> Classic.Lelann.program ~id:ids.(v))
           ~topo ~sched:(sched_of_seed 1))
          .messages
      in
      let hs =
        avg (fun seed ->
            let ids = mk_ids seed in
            (Classic.Driver.run ~name:"hs" ~expect_max:ids
               (fun v -> Classic.Hirschberg_sinclair.program ~id:ids.(v))
               ~topo ~sched:(sched_of_seed seed))
              .messages)
      in
      let pet =
        avg (fun seed ->
            let ids = mk_ids seed in
            (Classic.Driver.run ~name:"pet" ~expect_max:ids
               (fun v -> Classic.Peterson.program ~id:ids.(v))
               ~topo ~sched:(sched_of_seed seed))
              .messages)
      in
      let franklin =
        avg (fun seed ->
            let ids = mk_ids seed in
            (Classic.Driver.run ~name:"franklin" ~expect_max:ids
               (fun v -> Classic.Franklin.program ~id:ids.(v))
               ~topo ~sched:(sched_of_seed seed))
              .messages)
      in
      let ir =
        avg (fun seed ->
            (Classic.Driver.run ~seed ~name:"ir"
               (fun _ -> Classic.Itai_rodeh.program ~n ~range:8)
               ~topo ~sched:(sched_of_seed (seed + 17)))
              .messages)
      in
      let a2_dense = Formulas.algo2_total ~n ~id_max:n in
      let a2_sparse = Formulas.algo2_total ~n ~id_max:(n * n) in
      ( [
          Table.cell_int n;
          Table.cell_float ~decimals:0 cr;
          Table.cell_int cr_worst;
          Table.cell_int ll;
          Table.cell_float ~decimals:0 hs;
          Table.cell_float ~decimals:0 pet;
          Table.cell_float ~decimals:0 franklin;
          Table.cell_float ~decimals:0 ir;
          Table.cell_int a2_dense;
          Table.cell_int a2_sparse;
        ],
        ( (float_of_int n, cr),
          (float_of_int n, hs),
          (float_of_int n, float_of_int a2_dense) ) ))
  in
  List.iter (fun (cells, _) -> Table.add_row t cells) rows;
  print_table ~sink ~name:"e7" t;
  if not quick then begin
    let pts = List.map snd rows in
    Printf.printf
      "log-log slopes in n:  chang-roberts avg %.2f  (expected ~1.5 to 2 on\n\
       random inputs is ~n log n => ~1.2; worst 2),  hirschberg-sinclair %.2f\n\
       (~1.2 = n log n),  algo2 dense %.2f (= 2, quadratic because\n\
       ID_max >= n makes n*ID_max at least n^2)\n"
      (Fit.loglog_slope (List.map (fun (p, _, _) -> p) pts))
      (Fit.loglog_slope (List.map (fun (_, p, _) -> p) pts))
      (Fit.loglog_slope (List.map (fun (_, _, p) -> p) pts))
  end

(* ------------------------------------------------------------------ *)
(* E8: Corollary 5 composition. *)

let e8 ~sink ~quick =
  section
    "E8  Corollary 5 (composition)  --  paper: with the elected leader as\n\
     root, any asynchronous ring algorithm can be simulated on the fully\n\
     defective ring.  Costs below: election is the Theorem 1 closed form;\n\
     each tape symbol costs n pulses, each turn-baton 1.";
  let t =
    Table.create
      [
        ("app", Table.Left);
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("election", Table.Right);
        ("compose", Table.Right);
        ("total", Table.Right);
        ("cost model", Table.Left);
        ("correct", Table.Left);
        ("quiescent term.", Table.Left);
      ]
  in
  let ns = if quick then [ 2; 6 ] else [ 2; 4; 8; 12; 16 ] in
  let run_app ~label ~mk_app ~check ?predict n =
    let rng = Rng.create ~seed:(n + 1000) in
    let ids = Ids.distinct rng ~n ~id_max:(2 * n) in
    let net =
      Network.create (Topology.oriented n) (fun v ->
          Compose.Corollary5.program ~id:ids.(v) ~app:(mk_app ids v))
    in
    let result = Network.run ~max_deliveries:50_000_000 net (Scheduler.random (Rng.split rng)) in
    let outputs = Network.outputs net in
    let id_max = Ids.id_max ids in
    let election = Formulas.algo2_total ~n ~id_max in
    Table.add_row t
      [
        label;
        Table.cell_int n;
        Table.cell_int id_max;
        Table.cell_int election;
        Table.cell_int (result.sends - election);
        Table.cell_int result.sends;
        (match predict with
        | Some f ->
            let p = f ids in
            if p = result.sends then Printf.sprintf "%d =" p
            else Printf.sprintf "%d MISMATCH" p
        | None -> "-");
        yes_no (check ids outputs);
        yes_no
          (result.quiescent && result.all_terminated
          && Metrics.post_termination_deliveries (Network.metrics net) = 0);
      ]
  in
  let ids_by_distance ids =
    let n = Array.length ids in
    let leader = Ids.argmax ids in
    Array.init n (fun d -> ids.((leader + d) mod n))
  in
  List.iter
    (fun n ->
      run_app ~label:"ring discovery"
        ~mk_app:(fun _ _ -> Compose.Corollary5.app_ring_discovery)
        ~check:(fun _ outputs ->
          Array.for_all (fun (o : Output.t) -> o.value = Some n) outputs)
        ~predict:(fun ids ->
          Compose.Costs.ring_discovery_total ~n ~id_max:(Ids.id_max ids))
        n;
      run_app ~label:"gather ids"
        ~mk_app:(fun ids v -> Compose.Corollary5.app_gather_ids ~my_id:ids.(v))
        ~check:(fun ids outputs ->
          let id_max = Ids.id_max ids in
          Array.for_all (fun (o : Output.t) -> o.value = Some id_max) outputs)
        ~predict:(fun ids ->
          Compose.Costs.gather_ids_total
            ~ids_by_distance:(ids_by_distance ids)
            ~id_max:(Ids.id_max ids))
        n;
      run_app ~label:"sync chang-roberts"
        ~mk_app:(fun ids v ->
          Compose.Corollary5.app_sync_chang_roberts ~my_id:ids.(v))
        ~check:(fun ids outputs ->
          let id_max = Ids.id_max ids in
          Array.for_all (fun (o : Output.t) -> o.value = Some id_max) outputs)
        n;
      run_app ~label:"sync ring-sum"
        ~mk_app:(fun ids v -> Compose.Corollary5.app_sync_sum ~my_value:ids.(v))
        ~check:(fun ids outputs ->
          let total = Array.fold_left ( + ) 0 ids in
          Array.for_all (fun (o : Output.t) -> o.value = Some total) outputs)
        n;
      Table.add_rule t)
    ns;
  print_table ~sink ~name:"e8" t;
  (* Detailed per-app cost for one size, including the tape split. *)
  let n = if quick then 6 else 12 in
  let ids = Ids.distinct (Rng.create ~seed:5) ~n ~id_max:(2 * n) in
  let r =
    Compose.Corollary5.run ~app:Compose.Corollary5.app_ring_discovery ~ids
      Scheduler.fifo
  in
  Printf.printf
    "ring discovery at n=%d: total=%d = election %d + compose %d;\n\
     tape symbols (seen at root) %d; compose = symbols*n + n batons: %s\n"
    n r.total_pulses r.election_pulses r.compose_pulses r.tape_symbols
    (yes_no (r.compose_pulses = (r.tape_symbols * n) + n))

(* E11: bounded model checking — all schedules, not just sampled ones. *)
let e11 ~sink ~quick =
  section
    "E11 Exhaustive schedule exploration  --  the adversary tree of small\n\
     instances is walked completely (with state de-duplication); Theorem 1\n\
     must hold at EVERY reachable terminal state, and in fact all\n\
     schedules collapse to a single final state.";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ids", Table.Left);
        ("distinct states", Table.Right);
        ("terminal states", Table.Right);
        ("max depth", Table.Right);
        ("property failures", Table.Right);
        ("complete", Table.Left);
      ]
  in
  let check ids net =
    let n = Array.length ids in
    Network.is_quiescent net && Network.all_terminated net
    && Metrics.sends (Network.metrics net)
       = Formulas.algo2_total ~n ~id_max:(Ids.id_max ids)
    && Metrics.post_termination_deliveries (Network.metrics net) = 0
    &&
    let max_pos = Ids.argmax ids in
    Array.for_all
      (fun v ->
        Output.equal_role (Network.output net v).Output.role
          (if v = max_pos then Output.Leader else Output.Non_leader))
      (Array.init n Fun.id)
  in
  let cases =
    if quick then [ [| 1; 2 |]; [| 2; 3; 1 |] ]
    else
      [
        [| 1; 2 |];
        [| 4; 2 |];
        [| 2; 3; 1 |];
        [| 5; 1; 3 |];
        [| 2; 4; 1; 3 |];
        [| 3; 5; 2; 4 |];
        [| 2; 4; 1; 3; 5 |];
      ]
  in
  List.iter
    (fun ids ->
      let n = Array.length ids in
      let stats =
        Explore.exhaustive ~max_states:2_000_000
          ~make:(fun () ->
            Network.create (Topology.oriented n) (fun v ->
                Algo2.program ~id:ids.(v)))
          ~check:(check ids) ()
      in
      Table.add_row t
        [
          Table.cell_int n;
          String.concat ","
            (Array.to_list (Array.map string_of_int ids));
          Table.cell_int stats.Explore.distinct_states;
          Table.cell_int stats.Explore.terminal_states;
          Table.cell_int stats.Explore.max_depth;
          Table.cell_int stats.Explore.failures;
          yes_no (not stats.Explore.truncated);
        ])
    cases;
  print_table ~sink ~name:"e11_algo2" t;
  Printf.printf
    "A single terminal state means every legal asynchronous schedule ends\n\
     in literally the same global configuration.\n\n";
  (* Algorithm 3: every flip pattern x every schedule. *)
  let t2 =
    Table.create
      ~title:
        "Algorithm 3 (improved), exhaustively: all 2^n port-flip patterns x\n\
         all schedules; every quiescent state must have the max-ID leader, a\n\
         consistent orientation and exactly n(2*ID_max+1) pulses."
      [
        ("n", Table.Right);
        ("ids", Table.Left);
        ("flip patterns", Table.Right);
        ("distinct states (total)", Table.Right);
        ("failures", Table.Right);
        ("complete", Table.Left);
      ]
  in
  let check3 ids topo net =
    let n = Array.length ids in
    Network.is_quiescent net
    && Metrics.sends (Network.metrics net)
       = Formulas.algo3_improved_total ~n ~id_max:(Ids.id_max ids)
    && Election.orientation_consistent topo (Network.outputs net)
    &&
    let max_pos = Ids.argmax ids in
    Array.for_all
      (fun v ->
        Output.equal_role (Network.output net v).Output.role
          (if v = max_pos then Output.Leader else Output.Non_leader))
      (Array.init n Fun.id)
  in
  let cases3 = if quick then [ [| 2; 1 |] ] else [ [| 2; 1 |]; [| 2; 3; 1 |]; [| 1; 4; 2 |] ] in
  List.iter
    (fun ids ->
      let n = Array.length ids in
      let states = ref 0 and failures = ref 0 and complete = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let flips = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
        let topo = Topology.non_oriented ~flips in
        let stats =
          Explore.exhaustive ~max_states:2_000_000
            ~make:(fun () ->
              Network.create topo (fun v ->
                  Algo3.program ~scheme:Algo3.Improved ~id:ids.(v)))
            ~check:(check3 ids topo) ()
        in
        states := !states + stats.Explore.distinct_states;
        failures := !failures + stats.Explore.failures;
        if stats.Explore.truncated then complete := false
      done;
      Table.add_row t2
        [
          Table.cell_int n;
          String.concat "," (Array.to_list (Array.map string_of_int ids));
          Table.cell_int (1 lsl n);
          Table.cell_int !states;
          Table.cell_int !failures;
          yes_no !complete;
        ])
    cases3;
  print_table ~sink ~name:"e11_algo3" t2

(* E12: scale — the analytical simulator runs the dynamics exactly at
   ID magnitudes far beyond event-level simulation. *)
let e12 ~sink ~jobs ~quick =
  section
    "E12 Scale (fast analytical simulator)  --  the same dynamics, driven\n\
     pulse-by-pulse with closed-form lap arithmetic (O(n^2), exact).  The\n\
     ID_max term of Theorems 1/2 is verified at magnitudes where the\n\
     event engine would need 10^12 deliveries.  The fast simulator is\n\
     differentially tested against the engine at small scales.";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("algo1 measured", Table.Right);
        ("= n*IDmax", Table.Left);
        ("algo2 measured", Table.Right);
        ("= n(2IDmax+1)", Table.Left);
        ("algo3-impr measured", Table.Right);
        ("= n(2IDmax+1)", Table.Left);
      ]
  in
  let cases =
    if quick then [ (16, 1_000_000); (64, 1_000_000_000) ]
    else
      [
        (16, 1_000_000);
        (256, 1_000_000);
        (2048, 1_000_000);
        (16, 1_000_000_000);
        (256, 1_000_000_000);
        (2048, 1_000_000_000);
        (4096, 100_000_000);
        (2, 1_000_000_000_000);
      ]
  in
  par_rows ~jobs cases (fun (n, id_max) ->
      let rng = Rng.create ~seed:(n + 13) in
      let ids = Ids.distinct rng ~n ~id_max in
      let flips = Array.init n (fun _ -> Rng.bool rng) in
      let a1 = Colring_fastsim.Fast.algo1 ~ids in
      let a2 = Colring_fastsim.Fast.algo2 ~ids in
      let a3 =
        Colring_fastsim.Fast.algo3 ~scheme:Algo3.Improved ~ids ~flips
      in
      [
        Table.cell_int n;
        Table.cell_int id_max;
        Table.cell_int a1.total;
        yes_no (a1.total = Formulas.algo1_total ~n ~id_max);
        Table.cell_int a2.total;
        yes_no (a2.total = Formulas.algo2_total ~n ~id_max);
        Table.cell_int a3.total;
        yes_no
          (a3.total = Formulas.algo3_improved_total ~n ~id_max
          && a3.leader_unique && a3.orientation_consistent);
      ])
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e12" t

(* E13: asynchronous time (causal span) — a dimension the paper leaves
   implicit. *)
let e13 ~sink ~jobs ~quick =
  section
    "E13 Asynchronous time (causal span)  --  longest chain of causally\n\
     dependent deliveries, each message = one time unit.  Not a paper\n\
     claim: reported to show obliviousness costs time as well as\n\
     messages (the pulses are serialized by the counting argument),\n\
     while the classic algorithms finish in O(n)-ish spans.";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("ID_max", Table.Right);
        ("algo1 span", Table.Right);
        ("algo2 span", Table.Right);
        ("algo3-impr span", Table.Right);
        ("lelann span", Table.Right);
        ("chang-roberts span", Table.Right);
        ("hs span", Table.Right);
        ("algo2 msgs (ref)", Table.Right);
      ]
  in
  let ns = if quick then [ 8; 32 ] else [ 4; 8; 16; 32; 64 ] in
  par_rows ~jobs ns
    (fun n ->
      let rng = Rng.create ~seed:(n + 77) in
      let ids = Ids.distinct rng ~n ~id_max:(2 * n) in
      let id_max = Ids.id_max ids in
      let topo = Topology.oriented n in
      let span_of algorithm =
        (Election.run_report algorithm ~topo ~ids ~sched:(sched_of_seed n))
          .causal_span
      in
      let a1 = span_of Election.Algo1 in
      let a2 = span_of Election.Algo2 in
      let a3 =
        (Election.run_report (Election.Algo3 Algo3.Improved)
           ~topo:(Topology.random_non_oriented rng n) ~ids
           ~sched:(sched_of_seed (n + 1)))
          .causal_span
      in
      let classic name mk =
        (Classic.Driver.run ~name ~expect_max:ids mk ~topo
           ~sched:(sched_of_seed (n + 2)))
          .causal_span
      in
      let ll = classic "ll" (fun v -> Classic.Lelann.program ~id:ids.(v)) in
      let cr =
        classic "cr" (fun v -> Classic.Chang_roberts.program ~id:ids.(v))
      in
      let hs =
        classic "hs" (fun v -> Classic.Hirschberg_sinclair.program ~id:ids.(v))
      in
      [
        Table.cell_int n;
        Table.cell_int id_max;
        Table.cell_int a1;
        Table.cell_int a2;
        Table.cell_int a3;
        Table.cell_int ll;
        Table.cell_int cr;
        Table.cell_int hs;
        Table.cell_int (Formulas.algo2_total ~n ~id_max);
      ])
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e13" t;
  Printf.printf
    "The content-oblivious spans grow with ID_max (here ID_max = 2n, so\n\
     ~linearly in n on this table); the classic spans stay near 2n.\n"

(* E14: general graphs — the paper's closing open question, explored. *)
let e14 ~sink ~jobs ~quick =
  section
    "E14 General 2-edge-connected graphs (Section 7's open question) --\n\
     exploratory, no claim in the paper and none here.  First the ring\n\
     algorithms are cross-validated on the independent multi-port graph\n\
     simulator; then a naive generalization ('rotor': forward on the\n\
     next port, absorb every ID-th pulse) is observed on non-ring\n\
     2-edge-connected graphs: it usually reaches quiescence but does\n\
     NOT elect the max-ID node — new ideas are indeed needed.";
  (* Cross-validation row. *)
  let ids = Ids.distinct (Rng.create ~seed:3) ~n:8 ~id_max:20 in
  let g = Colring_graph.Gtopology.ring 8 in
  let gnet =
    Colring_graph.Gnetwork.create g (fun v ->
        Colring_graph.Circulate.algo3_deg2 ~scheme:Algo3.Improved ~id:ids.(v))
  in
  let gres = Colring_graph.Gnetwork.run gnet (sched_of_seed 4) in
  Printf.printf
    "cross-validation: Algorithm 3 on the ring-as-graph: %d pulses\n\
     (ring engine formula n(2*ID_max+1) = %d), quiescent: %s\n\n"
    gres.Colring_graph.Gnetwork.sends
    (Formulas.algo3_improved_total ~n:8 ~id_max:20)
    (yes_no gres.Colring_graph.Gnetwork.quiescent);
  let t =
    Table.create
      [
        ("graph", Table.Left);
        ("n", Table.Right);
        ("deg", Table.Left);
        ("2-edge-conn", Table.Left);
        ("runs", Table.Right);
        ("quiesced", Table.Right);
        ("exhausted", Table.Right);
        ("unique max leader", Table.Right);
        ("mean pulses (quiesced)", Table.Right);
      ]
  in
  let seeds = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let graphs =
    [
      ("ring(8)", Colring_graph.Gtopology.ring 8);
      ("theta(1,2,3)", Colring_graph.Gtopology.theta 1 2 3);
      ("theta(0,3,3)", Colring_graph.Gtopology.theta 0 3 3);
      ("K4", Colring_graph.Gtopology.complete 4);
      ("K6", Colring_graph.Gtopology.complete 6);
      ( "cycle8+2chords",
        Colring_graph.Gtopology.cycle_with_chords (Rng.create ~seed:9) ~n:8
          ~chords:2 );
    ]
  in
  par_rows ~jobs graphs
    (fun (name, g) ->
      let n = Colring_graph.Gtopology.n g in
      let quiesced = ref 0 and exhausted = ref 0 and elected = ref 0 in
      let pulses = Summary.create () in
      List.iter
        (fun seed ->
          let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(3 * n) in
          let net =
            Colring_graph.Gnetwork.create g (fun v ->
                Colring_graph.Circulate.rotor ~id:ids.(v))
          in
          let r =
            Colring_graph.Gnetwork.run ~max_deliveries:200_000 net
              (sched_of_seed (seed + 31))
          in
          if r.Colring_graph.Gnetwork.quiescent then begin
            incr quiesced;
            Summary.add_int pulses r.Colring_graph.Gnetwork.sends;
            let outs = Colring_graph.Gnetwork.outputs net in
            let leaders =
              Array.fold_left
                (fun acc (o : Output.t) ->
                  if Output.equal_role o.role Output.Leader then acc + 1
                  else acc)
                0 outs
            in
            if
              leaders = 1
              && Output.equal_role outs.(Ids.argmax ids).Output.role
                   Output.Leader
            then incr elected
          end
          else incr exhausted)
        seeds;
      let degs =
        List.sort_uniq compare
          (List.init n (fun v -> Colring_graph.Gtopology.degree g v))
      in
      [
        name;
        Table.cell_int n;
        String.concat "/" (List.map string_of_int degs);
        yes_no (Colring_graph.Gtopology.is_two_edge_connected g);
        Table.cell_int (List.length seeds);
        Table.cell_int !quiesced;
        Table.cell_int !exhausted;
        Table.cell_int !elected;
        (if Summary.count pulses = 0 then "-"
         else Table.cell_float ~decimals:0 (Summary.mean pulses));
      ])
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e14" t

(* E15: model checker throughput — lib/mc explores the POR-reduced
   schedule space exhaustively (DESIGN.md section 8).  Not a paper
   claim: reported so regressions in the replay-from-prefix engine are
   visible, and as a standing cross-check that the paper algorithms
   verify while every ablation yields a counterexample.  Rows run
   sequentially; the checker itself fans its root branches out on the
   domain pool, so -j N parallelizes *inside* each row (the time and
   states/s columns are wall-clock and vary run to run; every other
   column is deterministic and jobs-independent). *)
let e15 ~sink ~jobs ~quick =
  section
    "E15 Model checker (lib/mc)  --  exhaustive schedule-space exploration\n\
     with incremental undo, sleep-set/source-set POR, state caching and\n\
     (for anon:relay) rotation symmetry; states/sec is wall-clock.\n\
     'as expected' = verified for the paper algorithms and baselines,\n\
     counterexample found for every ablation.";
  let t =
    Table.create
      [
        ("target", Table.Left);
        ("n", Table.Right);
        ("states", Table.Right);
        ("terminal scheds", Table.Right);
        ("sleep pruned", Table.Right);
        ("dedup pruned", Table.Right);
        ("replayed", Table.Right);
        ("undone", Table.Right);
        ("time (s)", Table.Right);
        ("states/s", Table.Right);
        ("as expected", Table.Left);
      ]
  in
  let row n target =
    let ids = Ids.distinct (Rng.create ~seed:1) ~n ~id_max:n in
    let (Colring_mc.Spec.Packed spec) =
      Colring_mc.Spec.of_target target ~ids ~topo_seed:2
    in
    let t0 = Unix.gettimeofday () in
    let r = Colring_mc.Mc.check ~jobs spec in
    let dt = Unix.gettimeofday () -. t0 in
    let s = r.Colring_mc.Mc.stats in
    let ok =
      if spec.Colring_mc.Mc.expect_violation then
        r.Colring_mc.Mc.counterexample <> None
      else r.Colring_mc.Mc.counterexample = None && not s.Colring_mc.Mc.truncated
    in
    Table.add_row t
      [
        target;
        Table.cell_int n;
        Table.cell_int s.Colring_mc.Mc.states;
        Table.cell_int s.Colring_mc.Mc.schedules;
        Table.cell_int s.Colring_mc.Mc.sleep_pruned;
        Table.cell_int s.Colring_mc.Mc.dedup_pruned;
        Table.cell_int s.Colring_mc.Mc.replayed_deliveries;
        Table.cell_int s.Colring_mc.Mc.undone_deliveries;
        Table.cell_float ~decimals:3 dt;
        Table.cell_float ~decimals:0
          (float_of_int s.Colring_mc.Mc.states /. Float.max dt 1e-6);
        yes_no ok;
      ]
  in
  let targets =
    [
      "algo1";
      "algo2";
      "algo3-doubled";
      "algo3-improved";
      "franklin";
      "anon:relay";
      "ablation:no-lag";
      "ablation:same-virtual-ids";
      "ablation:no-absorption";
    ]
  in
  let ns = if quick then [ 3 ] else [ 3; 4 ] in
  List.iter (fun n -> List.iter (row n) targets) ns;
  (* The scale rows: exhaustive verification at n=5 for the paper
     algorithms and a baseline, and n=6 for the cheap ones — the
     sizes the incremental-undo + POR + symmetry scale-up unlocked. *)
  if not quick then begin
    List.iter (row 5)
      [ "algo1"; "algo2"; "algo3-improved"; "chang-roberts"; "anon:relay" ];
    List.iter (row 6) [ "algo1"; "algo2"; "anon:relay" ]
  end;
  print_table ~sink ~name:"e15" t

(* ------------------------------------------------------------------ *)
(* E16: transport backends — elections/sec and wall-clock latency
   percentiles per backend, fault-free and under jitter.  Ordering is
   load-bearing twice over: Unix.fork is forbidden for the rest of the
   process once any domain has been spawned (OCaml 5), so bench/main.ml
   runs E16 before every pool-using experiment, and within the table
   the forking socket rows run before the domains rows. *)

module Backend = Colring_transport.Backend

let e16 ~sink ~quick =
  section
    "E16 Transport backends  --  elections/sec and per-election wall-clock\n\
     latency per backend (sim / domains / socket), fault-free and under\n\
     deterministic latency+jitter injection.  'verified' counts runs whose\n\
     recorded schedule replayed byte-identically on the simulator.";
  let n = 8 in
  let trials = if quick then 8 else 32 in
  let topo = Topology.oriented n in
  let t =
    Table.create
      [
        ("backend", Table.Left);
        ("faults", Table.Left);
        ("trials", Table.Right);
        ("elections/s", Table.Right);
        ("p50 ms", Table.Right);
        ("p99 ms", Table.Right);
        ("verified", Table.Right);
        ("ok", Table.Right);
      ]
  in
  let row backend (fault_label, faults) =
    let times = Array.make trials 0.0 in
    let verified = ref 0 and elected = ref 0 in
    for i = 0 to trials - 1 do
      let ids = Ids.dense (Rng.create ~seed:(50 + i)) ~n in
      let t0 = Unix.gettimeofday () in
      let r = Backend.elect ~seed:i ~faults backend Election.Algo2 ~topo ~ids in
      times.(i) <- Unix.gettimeofday () -. t0;
      if r.Backend.verified then incr verified;
      if Election.ok r.Backend.report then incr elected
    done;
    let total = Array.fold_left ( +. ) 0.0 times in
    Array.sort Float.compare times;
    let pct p =
      times.(min (trials - 1) (int_of_float (p *. float_of_int trials)))
    in
    Table.add_row t
      [
        Backend.name backend;
        fault_label;
        Table.cell_int trials;
        Table.cell_float ~decimals:0 (float_of_int trials /. total);
        Table.cell_float ~decimals:3 (pct 0.50 *. 1e3);
        Table.cell_float ~decimals:3 (pct 0.99 *. 1e3);
        Table.cell_int !verified;
        Table.cell_int !elected;
      ]
  in
  let fault_cases =
    [
      ("none", Transport.no_fault);
      ( "lat=100us jit=300us",
        Transport.faults ~seed:7 ~latency:100 ~jitter:300 () );
    ]
  in
  (* Socket rows first (they fork), then the domain-spawning rows. *)
  List.iter
    (fun b -> List.iter (row b) fault_cases)
    [
      Backend.Socket { tcp = false };
      Backend.Socket { tcp = true };
      Backend.Sim;
      Backend.Domains;
    ];
  print_table ~sink ~name:"e16" t

(* ------------------------------------------------------------------ *)
(* E18: walk election by topology family — the general 2-edge-connected
   election (lib/graph Gelection, DESIGN.md section 11) measured per
   --topology family.  Pulse complexity is exactly walk * ID_max; the
   'overhead' column is walk/n, the factor the spanning-walk
   construction pays over Algorithm 1 on a ring of the same size
   (where the walk IS the ring, factor 1.00).  elections/s is
   wall-clock and varies run to run; every other column is
   deterministic and jobs-independent. *)

module Topo = Colring_harness.Topo
module Gelection = Colring_graph.Gelection

let e18_families =
  [
    Topo.Ring (Some 8);
    Topo.Theta 8;
    Topo.K4;
    Topo.Bowtie;
    Topo.Random2ec { n = 12; seed = 5 };
  ]

let e18 ~sink ~jobs ~quick =
  section
    "E18 Walk election on 2-edge-connected graphs  --  Gelection per\n\
     topology family (DESIGN.md section 11).  Pulse complexity is\n\
     walk*ID_max exactly; 'overhead' = walk/n, the spanning-walk cost\n\
     over Algorithm 1 on a same-size ring.  elections/s is wall-clock.";
  let t =
    Table.create
      [
        ("topology", Table.Left);
        ("n", Table.Right);
        ("walk", Table.Right);
        ("ears", Table.Right);
        ("overhead", Table.Right);
        ("runs", Table.Right);
        ("ok", Table.Right);
        ("sends=walk*IDmax", Table.Left);
        ("mean sends", Table.Right);
        ("elections/s", Table.Right);
      ]
  in
  let seeds =
    if quick then [ 1; 2; 3 ] else List.init 20 (fun i -> i + 1)
  in
  par_rows ~jobs e18_families
    (fun spec ->
      let g = Topo.materialize ~default_n:8 spec in
      let n = Colring_graph.Gtopology.n g in
      let plan = Gelection.plan g in
      let walk = Gelection.walk_length plan in
      let ears =
        List.length (Colring_graph.Ears.ears (Gelection.decomposition plan))
      in
      let ok = ref 0 and exact = ref 0 in
      let sends = Summary.create () in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun seed ->
          let ids =
            Ids.distinct (Rng.create ~seed:(seed * 11 + 1)) ~n ~id_max:(2 * n)
          in
          let r =
            Gelection.run_report plan ~ids ~sched:(sched_of_seed (seed + 97))
          in
          if Gelection.ok r then incr ok;
          if r.Gelection.sends = r.Gelection.expected_sends then incr exact;
          Summary.add_int sends r.Gelection.sends)
        seeds;
      let wall = Unix.gettimeofday () -. t0 in
      let runs = List.length seeds in
      [
        Topo.to_string spec;
        Table.cell_int n;
        Table.cell_int walk;
        Table.cell_int ears;
        Table.cell_ratio (float_of_int walk /. float_of_int n);
        Table.cell_int runs;
        Table.cell_int !ok;
        yes_no (!exact = runs);
        Table.cell_float ~decimals:1 (Summary.mean sends);
        Table.cell_float ~decimals:0
          (float_of_int runs /. Float.max wall 1e-9);
      ])
  |> List.iter (Table.add_row t);
  print_table ~sink ~name:"e18" t

let all ~sink ~jobs ~quick =
  e16 ~sink ~quick;
  e1 ~sink ~jobs ~quick;
  e1_dup ~sink ~jobs ~quick;
  e2 ~sink ~jobs ~quick;
  e3_e4 ~sink ~jobs ~quick;
  e5 ~sink ~jobs ~quick;
  e6 ~sink ~quick;
  e6b ~sink ~quick;
  e7 ~sink ~jobs ~quick;
  e8 ~sink ~quick;
  e9 ~sink ~jobs ~quick;
  e10 ~sink ~quick;
  e11 ~sink ~quick;
  e12 ~sink ~jobs ~quick;
  e13 ~sink ~jobs ~quick;
  e14 ~sink ~jobs ~quick;
  e15 ~sink ~jobs ~quick;
  e18 ~sink ~jobs ~quick
