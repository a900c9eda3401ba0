type role = Leader | Non_leader | Undecided

type t = {
  role : role;
  cw_port : Port.t option;
  value : int option;
  values : int list;
}

let empty = { role = Undecided; cw_port = None; value = None; values = [] }
let leader = { empty with role = Leader }
let non_leader = { empty with role = Non_leader }
let with_role role t = { t with role }
let with_cw_port p t = { t with cw_port = Some p }
let with_value v t = { t with value = Some v }
let with_values vs t = { t with values = vs }

let role_to_string = function
  | Leader -> "Leader"
  | Non_leader -> "Non-Leader"
  | Undecided -> "Undecided"

let role_code = function Undecided -> 0 | Leader -> 1 | Non_leader -> 2
let role_of_code = function 1 -> Leader | 2 -> Non_leader | _ -> Undecided

let equal_role a b =
  match (a, b) with
  | Leader, Leader | Non_leader, Non_leader | Undecided, Undecided -> true
  | (Leader | Non_leader | Undecided), _ -> false

let unique_leader outputs =
  let leaders = ref [] in
  Array.iteri
    (fun v o -> if equal_role o.role Leader then leaders := v :: !leaders)
    outputs;
  match !leaders with [ v ] -> Some v | [] | _ :: _ -> None

let equal a b =
  equal_role a.role b.role
  && Option.equal Port.equal a.cw_port b.cw_port
  && Option.equal Int.equal a.value b.value
  && List.equal Int.equal a.values b.values

(* Digit-direct decimal rendering: [string_of_int] allocates and
   copies, which dominates fingerprint construction at model-checker
   rates (dozens of ints per state, hundreds of thousands of states
   per second). *)
let rec add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_int buf (-n)
  end
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

(* One unambiguous token per field, fixed order: 'add_compact a = add_compact b'
   iff 'equal a b'.  Buffer-direct because the engines fingerprint every
   node's output once per model-checker state. *)
let add_compact buf t =
  Buffer.add_char buf
    (match t.role with Leader -> 'L' | Non_leader -> 'N' | Undecided -> 'U');
  Buffer.add_char buf
    (match t.cw_port with
    | None -> '-'
    | Some p -> if Port.index p = 0 then '0' else '1');
  (match t.value with
  | None -> Buffer.add_char buf '-'
  | Some v -> add_int buf v);
  match t.values with
  | [] -> ()
  | vs ->
      Buffer.add_char buf '[';
      List.iter
        (fun v ->
          add_int buf v;
          Buffer.add_char buf '.')
        vs;
      Buffer.add_char buf ']'

let pp ppf t =
  Format.fprintf ppf "%s" (role_to_string t.role);
  Option.iter (fun p -> Format.fprintf ppf " cw=%a" Port.pp p) t.cw_port;
  Option.iter (fun v -> Format.fprintf ppf " value=%d" v) t.value;
  match t.values with
  | [] -> ()
  | vs ->
      Format.fprintf ppf " values=[%s]"
        (String.concat ";" (List.map string_of_int vs))
