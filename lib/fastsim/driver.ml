type result = {
  receives : int array;
  deliveries : int;
  absorb_order : int list;
}

(* Drive the pulse currently sitting in the channel towards [start]
   until some node absorbs it.  [rho] holds received counts; a node
   absorbs on the receive that makes rho = its id (only nodes with
   rho < id can still absorb).  Returns the hop count. *)
let drive ~ids ~rho ~start =
  let n = Array.length ids in
  (* Absorption time of node v (0-indexed hops from now): its first
     visit is d(v) hops away, later visits every n hops; it absorbs on
     its (id - rho)-th future visit. *)
  let t_min = ref max_int and absorber = ref (-1) in
  for v = 0 to n - 1 do
    let delta = ids.(v) - rho.(v) in
    if delta >= 1 then begin
      let d = (v - start + n) mod n in
      let t = d + ((delta - 1) * n) in
      if t < !t_min then begin
        t_min := t;
        absorber := v
      end
    end
  done;
  if !absorber < 0 then failwith "Driver.drive: no absorbing node left";
  let t = !t_min in
  (* Credit every node its visits during these t+1 deliveries. *)
  for v = 0 to n - 1 do
    let d = (v - start + n) mod n in
    if d <= t then rho.(v) <- rho.(v) + 1 + ((t - d) / n)
  done;
  (!absorber, t + 1)

let run ~ids =
  let n = Array.length ids in
  if n = 0 then invalid_arg "Driver.run: empty ring";
  Array.iter
    (fun id -> if id < 1 then invalid_arg "Driver.run: ids must be positive")
    ids;
  let rho = Array.make n 0 in
  let deliveries = ref 0 in
  let order = ref [] in
  (* Initially node v's start-up pulse sits in the channel towards
     v+1.  Resolving the n initial pulses one at a time, in the
     canonical 0..n-1 order, is a legal schedule. *)
  for j = 0 to n - 1 do
    let absorber, hops = drive ~ids ~rho ~start:((j + 1) mod n) in
    deliveries := !deliveries + hops;
    order := absorber :: !order
  done;
  { receives = rho; deliveries = !deliveries; absorb_order = List.rev !order }
