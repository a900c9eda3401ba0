type view = {
  nonempty : int array;
  mutable count : int;
  head_seq : int -> int;
  head_batch : int -> int;
  travels_cw : int -> bool option;
  dst_node : int -> int;
  mutable step : int;
}

type t = { name : string; pick : view -> int }

(* Lexicographic argmin over the first [count] links.  The three integer
   keys are evaluated lazily (k2 and k3 only on k1 ties) and the scan is
   a top-level tail recursion over immediate arguments (a [let rec]
   nested in the pick would allocate its closure on every call), so a
   pick allocates nothing.  Ties on the full key keep the earlier link
   in the buffer; every built-in scheduler below has a globally unique
   third key (the send sequence number), so buffer order never
   influences the choice. *)
let rec argmin_scan key1 key2 key3 v i best b1 b2 b3 =
  if i >= v.count then best
  else
    let l = v.nonempty.(i) in
    let k1 = key1 v l in
    if k1 > b1 then argmin_scan key1 key2 key3 v (i + 1) best b1 b2 b3
    else if k1 < b1 then
      argmin_scan key1 key2 key3 v (i + 1) l k1 (key2 v l) (key3 v l)
    else
      let k2 = key2 v l in
      if k2 > b2 then argmin_scan key1 key2 key3 v (i + 1) best b1 b2 b3
      else if k2 < b2 then
        argmin_scan key1 key2 key3 v (i + 1) l b1 k2 (key3 v l)
      else
        let k3 = key3 v l in
        if k3 < b3 then argmin_scan key1 key2 key3 v (i + 1) l b1 b2 k3
        else argmin_scan key1 key2 key3 v (i + 1) best b1 b2 b3

let argmin3 key1 key2 key3 v =
  let l0 = v.nonempty.(0) in
  argmin_scan key1 key2 key3 v 1 l0 (key1 v l0) (key2 v l0) (key3 v l0)

let k_seq v l = v.head_seq l
let k_neg_seq v l = -v.head_seq l
let k_batch v l = v.head_batch l
(* Direction keys read the optional ground truth: links without a
   defined direction (general graphs report [None]) sort with the
   non-preferred class, so direction bias degrades to FIFO there. *)
let k_cw_first v l = match v.travels_cw l with Some true -> 0 | _ -> 1
let k_zero _ _ = 0

(* Key tuples are ordered lexicographically as (key1, key2, key3). *)
let fifo =
  { name = "fifo-cw-priority"; pick = argmin3 k_batch k_cw_first k_seq }

let global_fifo = { name = "global-fifo"; pick = argmin3 k_seq k_zero k_zero }
let lifo = { name = "lifo"; pick = argmin3 k_neg_seq k_zero k_zero }

(* Smallest non-empty link at or after the cursor [c]; when none
   remains, wrap to the smallest non-empty link overall.  The buffer is
   unordered, so both minima are found in one scan. *)
let rec rr_scan v c i best_ge best_min =
  if i >= v.count then if best_ge < max_int then best_ge else best_min
  else
    let l = v.nonempty.(i) in
    let best_min = if l < best_min then l else best_min in
    let best_ge = if l >= c && l < best_ge then l else best_ge in
    rr_scan v c (i + 1) best_ge best_min

let round_robin () =
  let cursor = ref 0 in
  {
    name = "round-robin";
    pick =
      (fun v ->
        let link = rr_scan v !cursor 0 max_int max_int in
        cursor := link + 1;
        link);
  }

let random rng =
  {
    name = "random";
    pick = (fun v -> v.nonempty.(Colring_stats.Rng.int rng v.count));
  }

let bias_direction ~cw =
  let k_pref v l =
    match v.travels_cw l with Some d when Bool.equal d cw -> 0 | _ -> 1
  in
  {
    name = (if cw then "bias-cw" else "bias-ccw");
    pick = argmin3 k_pref k_seq k_zero;
  }

let starve_node ~node =
  let k_starved v l = if Int.equal (v.dst_node l) node then 1 else 0 in
  {
    name = Printf.sprintf "starve-node-%d" node;
    pick = argmin3 k_starved k_seq k_zero;
  }

let hog_node ~node =
  let k_hogged v l = if Int.equal (v.dst_node l) node then 0 else 1 in
  {
    name = Printf.sprintf "hog-node-%d" node;
    pick = argmin3 k_hogged k_seq k_zero;
  }

let starve_link ~link:starved =
  let k_starved _ l = if Int.equal l starved then 1 else 0 in
  {
    name = Printf.sprintf "starve-link-%d" starved;
    pick = argmin3 k_starved k_seq k_zero;
  }

(* Membership scan over the view's non-empty buffer (unordered, so a
   linear scan is all there is). *)
let rec mem_scan v l i =
  if i >= v.count then false
  else if Int.equal v.nonempty.(i) l then true
  else mem_scan v l (i + 1)

let of_schedule ?name schedule =
  let cursor = ref 0 in
  {
    name =
      (match name with
      | Some n -> n
      | None ->
          Printf.sprintf "schedule-%d-then-fifo" (Array.length schedule));
    pick =
      (fun v ->
        let c = !cursor in
        if c >= Array.length schedule then fifo.pick v
        else begin
          cursor := c + 1;
          let l = schedule.(c) in
          if not (mem_scan v l 0) then
            invalid_arg "Scheduler.of_schedule: scheduled link is empty";
          l
        end);
  }

let all_deterministic () =
  [
    fifo;
    global_fifo;
    lifo;
    round_robin ();
    bias_direction ~cw:true;
    bias_direction ~cw:false;
    starve_node ~node:0;
    hog_node ~node:0;
    starve_link ~link:0;
  ]

let pp ppf t = Format.pp_print_string ppf t.name
