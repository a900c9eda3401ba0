(* Fires [mailbox-write] four times outside lib/engine/ and
   lib/transport/: an element assignment, [Array.fill], [Array.blit]
   into the field and [Stdlib.Array.unsafe_set].  Reads, and a blit
   out of the mailbox, are clean. *)
let forge (api : _ Network.api) =
  api.mailbox.(0) <- 5;
  Array.fill api.Network.mailbox 0 2 0;
  Array.blit [| 1; 1 |] 0 api.mailbox 0 2;
  Stdlib.Array.unsafe_set api.mailbox 1 3

let read (api : _ Network.api) copy =
  Array.blit api.mailbox 0 copy 0 2;
  api.mailbox.(0) > 0 && Array.get api.mailbox 1 = 0
