type t = {
  mutable sends : int;
  mutable sends_cw : int;
  mutable deliveries : int;
  mutable consumes : int;
  mutable wakes : int;
  mutable post_term : int;
}

let create () =
  {
    sends = 0;
    sends_cw = 0;
    deliveries = 0;
    consumes = 0;
    wakes = 0;
    post_term = 0;
  }

let reset t =
  t.sends <- 0;
  t.sends_cw <- 0;
  t.deliveries <- 0;
  t.consumes <- 0;
  t.wakes <- 0;
  t.post_term <- 0

let on_send t ~cw =
  t.sends <- t.sends + 1;
  if cw then t.sends_cw <- t.sends_cw + 1

let on_deliver t = t.deliveries <- t.deliveries + 1
let on_consume t = t.consumes <- t.consumes + 1
let on_post_termination_delivery t = t.post_term <- t.post_term + 1
let on_wake t = t.wakes <- t.wakes + 1

let sends t = t.sends
let sends_cw t = t.sends_cw
let sends_ccw t = t.sends - t.sends_cw
let deliveries t = t.deliveries
let consumes t = t.consumes
let wakes t = t.wakes
let post_termination_deliveries t = t.post_term

(* Stable schema: snake_case keys in alphabetical order (see the .mli;
   a test pins the exact list). *)
let to_assoc t =
  [
    ("consumes", t.consumes);
    ("deliveries", t.deliveries);
    ("post_termination_deliveries", t.post_term);
    ("sends", t.sends);
    ("sends_ccw", sends_ccw t);
    ("sends_cw", t.sends_cw);
    ("wakes", t.wakes);
  ]

let pp ppf t =
  Format.fprintf ppf "sends=%d (cw=%d ccw=%d) deliveries=%d consumes=%d wakes=%d post-term=%d"
    t.sends t.sends_cw (sends_ccw t) t.deliveries t.consumes t.wakes t.post_term
