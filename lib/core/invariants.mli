(** Machine-checked invariants of the paper's lemmas, as engine probes.

    Attach a checker to a running network and it validates, after every
    single delivery, the state predicates the paper proves — turning
    the lemmas into executable assertions.  Used by the test-suite and
    available to any experiment. *)

type violation = {
  step : int;  (** Delivery count when the violation was seen. *)
  node : int;
  lemma : string;
  detail : string;
}

type checker

val attach :
  Colring_engine.Network.pulse Colring_engine.Network.t ->
  ids:int array ->
  checker
(** Build a checker for a network running Algorithm 1 or Algorithm 2
    (it reads the standard counter names of the programs' views through
    [Network.inspect]). *)

val probe : checker -> step:int -> unit
(** Pass as the [~probe] of {!Colring_engine.Network.run}. *)

val violations : checker -> violation list
(** Chronological; empty iff every checked configuration satisfied:

    - Lemma 6(1): [ρ < ID] implies [σ = ρ + 1] (per direction, the CCW
      instance checked only once it has started);
    - Lemma 6(2): [ρ >= ID] implies [σ = ρ];
    - Corollary 14: [ρ <= ID_max] (CW instance; [ID_max + 1] allowed on
      the CCW side for the termination pulse);
    - Lemma 7 order: no node reaches [ρcw >= ID] after the max-ID node
      has;
    - Lemmas 8/9 (and 11): the clockwise instance has pulses in transit
      iff some node still has [ρcw < ID] — checked in both directions
      from the conservation identity in-transit = Σσ − Σρ (violations
      reported with [node = -1]). *)

val ok : checker -> bool

val pp_violation : Format.formatter -> violation -> unit
