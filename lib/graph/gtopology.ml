module Rng = Colring_stats.Rng

type t = {
  size : int;
  degrees : int array;
  offsets : int array; (* offsets.(v) + p = global directed-link id *)
  dst : (int * int) array; (* by link id: receiving (node, port) *)
  edge_list : (int * int) list;
  edge_of_link : int array; (* link id -> edge index *)
}

let n t = t.size
let degree t v = t.degrees.(v)
let num_links t = Array.length t.dst

let link_id t ~node ~port =
  if port < 0 || port >= t.degrees.(node) then
    invalid_arg "Gtopology.link_id: bad port";
  t.offsets.(node) + port

let first_link t v = t.offsets.(v)

let link_src t id =
  (* Binary search over offsets. *)
  let rec go lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if t.offsets.(mid) <= id then go mid hi else go lo (mid - 1)
  in
  let v = go 0 (t.size - 1) in
  (v, id - t.offsets.(v))

let link_dst t id = t.dst.(id)
let peer t ~node ~port = t.dst.(link_id t ~node ~port)
let edges t = t.edge_list
let edge_of_link t id = t.edge_of_link.(id)

let reverse_link t id =
  let w, q = t.dst.(id) in
  t.offsets.(w) + q

let link_of_edge t ~edge ~src =
  let rec scan p =
    if p >= t.degrees.(src) then
      invalid_arg "Gtopology.link_of_edge: edge not incident to src"
    else if t.edge_of_link.(t.offsets.(src) + p) = edge then t.offsets.(src) + p
    else scan (p + 1)
  in
  scan 0

let of_edges ~n:size edge_list =
  if size < 1 then invalid_arg "Gtopology.of_edges: empty graph";
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg "Gtopology.of_edges: self-loop";
      if a < 0 || b < 0 || a >= size || b >= size then
        invalid_arg "Gtopology.of_edges: endpoint out of range")
    edge_list;
  let degrees = Array.make size 0 in
  List.iter
    (fun (a, b) ->
      degrees.(a) <- degrees.(a) + 1;
      degrees.(b) <- degrees.(b) + 1)
    edge_list;
  let offsets = Array.make size 0 in
  for v = 1 to size - 1 do
    offsets.(v) <- offsets.(v - 1) + degrees.(v - 1)
  done;
  let total = offsets.(size - 1) + degrees.(size - 1) in
  let dst = Array.make total (-1, -1) in
  let edge_of_link = Array.make total (-1) in
  let next_port = Array.make size 0 in
  List.iteri
    (fun e (a, b) ->
      let pa = next_port.(a) in
      next_port.(a) <- pa + 1;
      let pb = next_port.(b) in
      next_port.(b) <- pb + 1;
      dst.(offsets.(a) + pa) <- (b, pb);
      dst.(offsets.(b) + pb) <- (a, pa);
      edge_of_link.(offsets.(a) + pa) <- e;
      edge_of_link.(offsets.(b) + pb) <- e)
    edge_list;
  { size; degrees; offsets; dst; edge_list; edge_of_link }

let ring size =
  if size < 2 then invalid_arg "Gtopology.ring: n must be >= 2";
  of_edges ~n:size (List.init size (fun v -> (v, (v + 1) mod size)))

let theta a b c =
  if a < 0 || b < 0 || c < 0 then invalid_arg "Gtopology.theta: negative path";
  if List.length (List.filter (fun x -> x = 0) [ a; b; c ]) > 1 then
    invalid_arg "Gtopology.theta: at most one empty path (no multi-edge pair)";
  (* Nodes: 0 and 1 are the hubs; inner nodes numbered consecutively. *)
  let next = ref 2 in
  let path len =
    let inner = List.init len (fun i -> !next + i) in
    next := !next + len;
    match inner with
    | [] -> [ (0, 1) ]
    | _ ->
        let chain = 0 :: (inner @ [ 1 ]) in
        let rec pairs = function
          | x :: (y :: _ as rest) -> (x, y) :: pairs rest
          | [ _ ] | [] -> []
        in
        pairs chain
  in
  let e1 = path a in
  let e2 = path b in
  let e3 = path c in
  of_edges ~n:!next (e1 @ e2 @ e3)

let bowtie () =
  (* Two triangles sharing node 0 — the smallest graph whose ear
     decomposition has a closed ear (the second triangle, anchored at
     the cut vertex 0).  2-edge-connected but not 2-vertex-connected. *)
  of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (0, 3); (3, 4); (4, 0) ]

let complete size =
  if size < 3 then invalid_arg "Gtopology.complete: n must be >= 3";
  let edges = ref [] in
  for a = 0 to size - 1 do
    for b = a + 1 to size - 1 do
      edges := (a, b) :: !edges
    done
  done;
  of_edges ~n:size (List.rev !edges)

let cycle_with_chords rng ~n:size ~chords =
  if size < 4 then invalid_arg "Gtopology.cycle_with_chords: n must be >= 4";
  let cycle = List.init size (fun v -> (v, (v + 1) mod size)) in
  (* Only n(n-3)/2 distinct non-adjacent chords exist; cap the request
     so the rejection sampling always terminates. *)
  let chords = min chords (size * (size - 3) / 2) in
  let seen = Hashtbl.create 16 in
  let adjacent a b = (a + 1) mod size = b || (b + 1) mod size = a in
  let rec pick k acc =
    if k = 0 then acc
    else begin
      let a = Rng.int rng size and b = Rng.int rng size in
      let key = (min a b, max a b) in
      if a <> b && (not (adjacent a b)) && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        pick (k - 1) (key :: acc)
      end
      else pick k acc
    end
  in
  of_edges ~n:size (cycle @ pick chords [])

let is_connected t =
  let visited = Array.make t.size false in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      for p = 0 to t.degrees.(v) - 1 do
        dfs (fst (peer t ~node:v ~port:p))
      done
    end
  in
  dfs 0;
  Array.for_all Fun.id visited

(* Tarjan bridge finding on the multigraph: an edge is a bridge iff
   low(child) > disc(parent), never re-using the edge instance we
   entered a child through (parallel edges are distinct instances). *)
let bridges t =
  let disc = Array.make t.size (-1) in
  let low = Array.make t.size max_int in
  let out = ref [] in
  let time = ref 0 in
  let rec dfs v via_edge =
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time;
    for p = 0 to t.degrees.(v) - 1 do
      let link = t.offsets.(v) + p in
      let e = t.edge_of_link.(link) in
      if e <> via_edge then begin
        let w = fst (peer t ~node:v ~port:p) in
        if disc.(w) < 0 then begin
          dfs w e;
          if low.(w) < low.(v) then low.(v) <- low.(w);
          if low.(w) > disc.(v) then out := List.nth t.edge_list e :: !out
        end
        else if disc.(w) < low.(v) then low.(v) <- disc.(w)
      end
    done
  in
  for v = 0 to t.size - 1 do
    if disc.(v) < 0 then dfs v (-1)
  done;
  List.rev !out

let is_two_edge_connected t = is_connected t && bridges t = []

let pp ppf t =
  Format.fprintf ppf "@[<v>graph n=%d m=%d%s@," t.size
    (List.length t.edge_list)
    (if is_two_edge_connected t then " (2-edge-connected)" else "");
  List.iter (fun (a, b) -> Format.fprintf ppf "  %d -- %d@," a b) t.edge_list;
  Format.fprintf ppf "@]"
