(** Solitude patterns (Definition 21).

    A solitude pattern is the sequence of incoming pulses a node
    observes when it runs alone on a one-node ring under the canonical
    scheduler — pulses delivered in send order, clockwise first on
    ties — encoded as a binary string ('0' = clockwise pulse,
    '1' = counterclockwise pulse).

    Lemma 22 shows every ID must have a distinct solitude pattern for
    any uniform content-oblivious leader-election algorithm; Theorem 20
    turns that, via the pigeonhole principle on shared prefixes, into
    the [n * floor(log2 (k / n))] message lower bound.  This module
    computes the patterns experimentally so the lower-bound reasoning
    can be checked against the actual Algorithm 2. *)

type pattern = string
(** Chronological; ['0'] is a clockwise pulse, ['1'] counterclockwise. *)

val max_deliveries : int
(** 1_000_000: the delivery budget of one extraction. *)

val extract :
  (id:int -> Colring_engine.Network.pulse Colring_engine.Network.program) ->
  id:int ->
  pattern
(** Run the given per-ID program on the one-node ring under the
    Definition 21 scheduler until quiescence and return the node's
    observation sequence.  Raises [Failure] if the run does not
    quiesce within {!max_deliveries}. *)

val extract_range :
  (id:int -> Colring_engine.Network.pulse Colring_engine.Network.program) ->
  lo:int ->
  hi:int ->
  (int * pattern) list
(** Patterns for every ID in [lo..hi]. *)

val length : pattern -> int
(** Number of pulses observed — on the one-node ring this equals the
    algorithm's message complexity for that ID. *)

val algo2_expected : id:int -> pattern
(** The closed-form solitude pattern of Algorithm 2 for a given ID:
    [id] clockwise pulses, then [id + 1] counterclockwise ones (the
    last being the returning termination pulse). *)
