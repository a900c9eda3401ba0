(** Algorithm 3 — quiescently stabilizing leader election and ring
    orientation on non-oriented rings (Section 4).

    Each node derives two virtual IDs, one per local port, and runs two
    interleaved copies of Algorithm 1 — pulses received on one port are
    forwarded out of the other, so the two directions of travel never
    interfere.  The virtual IDs make the maximal IDs of the two
    directional executions differ, so pulse counts eventually
    distinguish the directions: the node seeing its own large virtual
    ID win declares itself Leader, and every node labels as clockwise
    the port on which fewer pulses arrived.

    The algorithm reaches quiescence but never terminates (the paper
    conjectures termination is impossible here).

    The register file's view, in order: ["id"], ["id0"], ["id1"] (the
    virtual IDs, written at creation and on resampling), ["rho0"],
    ["rho1"], ["sigma0"], ["sigma1"], ["resamples"]; one hidden cell
    holds the output last published. *)

type id_scheme =
  | Doubled
      (** [ID^(i) = 2*ID - 1 + i] — Proposition 15; all [2n] virtual
          IDs are globally unique; [n * (4*ID_max - 1)] pulses. *)
  | Improved
      (** [ID^(i) = ID + i] — Theorem 2; virtual IDs repeat across
          nodes but the two directional maxima still differ
          (Lemma 16/17); [n * (2*ID_max + 1)] pulses. *)

val program :
  scheme:id_scheme ->
  id:int ->
  Colring_engine.Network.pulse Colring_engine.Network.program
(** The per-node program; run it on any (oriented or not) ring.
    [id] must be positive; node outputs carry both the role and the
    believed clockwise port. *)

val program_resampling :
  id:int -> Colring_engine.Network.pulse Colring_engine.Network.program
(** The Proposition 19 modification of the [Improved] program: whenever
    a pulse arrives and [min(ρ0, ρ1) > ID], the node resamples its ID
    uniformly from [\[1, min(ρ0,ρ1) - 1\]], so that at quiescence all
    IDs are distinct with high probability.  The pulse dynamics — and
    hence the message complexity — are unchanged. *)

val total_pulses : scheme:id_scheme -> n:int -> id_max:int -> int
