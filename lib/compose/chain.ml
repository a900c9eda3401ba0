open Colring_engine

type 'm phase = First | Second of 'm Network.program

let chain first second =
  let phase = ref First in
  let first_output = ref Output.empty in
  (* The wrapped api shows [first] a terminate that only flips the
     phase, and records outputs so [second] can be built from them. *)
  let wrap (api : 'm Network.api) =
    {
      api with
      set_output =
        (fun o ->
          first_output := o;
          api.set_output o);
      terminate = (fun () -> phase := Second (second !first_output));
    }
  in
  let second_started = ref false in
  let switch_if_needed api =
    match !phase with
    | Second prog when not !second_started ->
        second_started := true;
        prog.Network.start api
    | Second _ | First -> ()
  in
  let start (api : 'm Network.api) =
    first.Network.start (wrap api);
    switch_if_needed api
  in
  let wake (api : 'm Network.api) =
    match !phase with
    | First ->
        first.Network.wake (wrap api);
        switch_if_needed api
    | Second prog -> prog.Network.wake api
  in
  let inspect () =
    let tag prefix kvs = List.map (fun (k, v) -> (prefix ^ k, v)) kvs in
    let second_counters =
      match !phase with
      | First -> []
      | Second prog -> tag "b." (Network.counters prog.Network.state)
    in
    tag "a." (Network.counters first.Network.state) @ second_counters
  in
  (* Opaque: the second-phase program is constructed dynamically from
     the first phase's output, so the chain's state is not a fixed set
     of ints. *)
  { Network.start; wake; state = Opaque inspect }
