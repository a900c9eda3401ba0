(* Tests for the statistics substrate. *)

open Colring_stats

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let test_rng_determinism () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent_of_parent_use () =
  let a = Rng.create ~seed:2 in
  let child_before = Rng.split_at a 7 in
  let x = Rng.int child_before 1_000_000 in
  let a' = Rng.create ~seed:2 in
  let child_again = Rng.split_at a' 7 in
  checki "split_at stable" x (Rng.int child_again 1_000_000)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int_incl r 5 9 in
    checkb "in range" true (v >= 5 && v <= 9)
  done;
  checki "bits 0" 0 (Rng.bits r 0)

let test_rng_geometric_mean () =
  (* Geo(1-p) with p = 0.5 has mean p/(1-p) = 1. *)
  let r = Rng.create ~seed:4 in
  let s = Summary.create () in
  for _ = 1 to 20_000 do
    Summary.add_int s (Rng.geometric r ~p:0.5)
  done;
  checkb "mean near 1" true (abs_float (Summary.mean s -. 1.0) < 0.05)

let test_summary_basics () =
  let s = Summary.of_ints [ 1; 2; 3; 4; 5 ] in
  checkf "mean" 3.0 (Summary.mean s);
  checkf "min" 1.0 (Summary.min s);
  checkf "max" 5.0 (Summary.max s);
  checkf "median" 3.0 (Summary.median s);
  checkf "variance" 2.5 (Summary.variance s)

let test_summary_quantile_interpolation () =
  let s = Summary.of_list [ 0.; 10. ] in
  checkf "q25" 2.5 (Summary.quantile s 0.25)

let test_fit_linear_exact () =
  let line = Fit.linear [ (1., 5.); (2., 7.); (3., 9.) ] in
  checkf "slope" 2.0 line.Fit.slope;
  checkf "intercept" 3.0 line.Fit.intercept;
  checkf "r2" 1.0 line.Fit.r2

let test_fit_proportional () =
  let a = Fit.proportional [ (1., 3.); (2., 6.); (10., 30.) ] in
  checkf "a" 3.0 a

let test_fit_loglog () =
  let pts = List.init 10 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 4. *. (x ** 2.))) in
  checkb "slope near 2" true (abs_float (Fit.loglog_slope pts -. 2.) < 1e-6)

let test_max_rel_err () =
  checkf "zero" 0. (Fit.max_rel_err [ (10., 10.); (5., 5.) ]);
  checkb "nonzero" true (Fit.max_rel_err [ (10., 12.) ] > 0.19)

let test_table_render () =
  let t =
    Table.create ~title:"demo"
      [ ("name", Table.Left); ("count", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "12" ];
  Table.add_rule t;
  Table.add_row t [ "b"; "3" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  checkb "aligned" true
    (String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0)
    |> List.map String.length
    |> fun ls -> List.for_all (fun l -> l = List.nth ls 1) (List.tl ls))

let test_table_arity_checked () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles monotone" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.))
    (fun xs ->
      QCheck.assume (List.length xs >= 2);
      let s = Summary.of_list xs in
      Summary.quantile s 0.1 <= Summary.quantile s 0.5
      && Summary.quantile s 0.5 <= Summary.quantile s 0.9)

let prop_geometric_nonneg =
  QCheck.Test.make ~name:"geometric nonnegative" ~count:200
    QCheck.(pair small_nat (float_range 0.01 1.0))
    (fun (seed, p) ->
      let r = Rng.create ~seed in
      Rng.geometric r ~p >= 0)

let () =
  Alcotest.run "colring-stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split stability" `Quick
            test_rng_split_independent_of_parent_use;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "quantile interpolation" `Quick
            test_summary_quantile_interpolation;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "proportional" `Quick test_fit_proportional;
          Alcotest.test_case "loglog slope" `Quick test_fit_loglog;
          Alcotest.test_case "max rel err" `Quick test_max_rel_err;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity_checked;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_quantile_monotone; prop_geometric_nonneg ] );
    ]
