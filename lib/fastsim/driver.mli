(** The analytical core of the fast simulator: one directional
    Algorithm 1 instance, simulated exactly in O(n²) arithmetic
    operations instead of Θ(n·ID_max) event deliveries.

    Why this is sound: the model checker (E11) and the theory
    both show Algorithm 1's final state and totals are independent of
    the delivery schedule, so we may pick a convenient one.  We pick
    "drive one pulse at a time until it is absorbed".  While a single
    pulse circulates, every node it passes gains one received pulse per
    lap, so the node that absorbs it and the number of hops it travels
    have closed forms — each pulse is resolved with O(n) arithmetic,
    without materializing its Θ(ID_max) hops.

    IDs (absorption thresholds) need not be unique (Lemma 16); they
    must be positive.  Counters can reach n·ID_max, so magnitudes up to
    ~10^15 are exact on 63-bit ints. *)

type result = {
  receives : int array;
      (** Final per-node received count; Corollary 13 says every entry
          equals [ID_max] (and [sends = receives] per node). *)
  deliveries : int;
      (** Total deliveries = total sends (the instance's message
          complexity). *)
  absorb_order : int list;
      (** Nodes in the order they absorbed a pulse under the chosen
          schedule; the last entry is a max-ID node (Lemma 7/17). *)
}

val run : ids:int array -> result
(** Simulate one clockwise instance on nodes [0..n-1] (node [v] sends
    to [v+1 mod n]).  For a counterclockwise instance, pass the ID
    array reversed and map node indices accordingly (the wrappers do
    this).  The n initial pulses are resolved in the canonical order
    of their senders, 0..n-1.  Totals ({!result.receives},
    {!result.deliveries}) are schedule-independent, and the last entry
    of {!result.absorb_order} is a max-ID node (Lemma 7/17).  No
    delivery budget applies and no journal is written: not simulating
    the Θ(n·ID_max) deliveries is the point of this module. *)
