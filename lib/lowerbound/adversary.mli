(** The constructive Theorem 20 adversary, replayed on the simulator.

    The proof of Theorem 20 argues: among [k] assignable IDs pick [n]
    whose solitude patterns share a prefix of length
    [s >= floor(log2(k/n))] (Corollary 24), assign them to the ring,
    and schedule deliveries in global send order.  Then every node
    sends and receives exactly as in its solitude run for the first [s]
    steps — identical receive prefixes plus determinism force identical
    behaviour — so at least [n * s] pulses are sent in total.

    {!replay} performs this construction literally against a concrete
    algorithm and reports whether the predicted solitude-mimicry
    actually happened (it must, for any uniform content-oblivious
    algorithm on the global-FIFO schedule). *)

type report = {
  k : int;  (** IDs considered: [1..k]. *)
  n : int;
  ids : int array;  (** The adversarially chosen assignment. *)
  shared_prefix : int;
      (** Longest solitude-pattern prefix shared by all chosen IDs. *)
  formula_prefix : int;  (** [floor (log2 (k/n))] — the promised floor. *)
  sends : int;  (** Pulses the run actually sent. *)
  bound : int;  (** [n * shared_prefix]. *)
  per_node_agreement : int array;
      (** For each ring position, the length of the common prefix of
          the node's observed pulse sequence with its solitude
          pattern. *)
  mimicry : bool;
      (** Every node followed its solitude pattern for at least
          [shared_prefix] observations — the crux of the proof. *)
}

val replay :
  k:int ->
  n:int ->
  (id:int -> Colring_engine.Network.pulse Colring_engine.Network.program) ->
  report
(** Requires [k >= n >= 1].  The factory must terminate or stabilize on
    every instance (Algorithm 2 does): each solitude run within
    {!Solitude.max_deliveries}, the ring run within the engine's
    default delivery budget. *)
