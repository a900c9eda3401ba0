(** Least-squares fitting used to check complexity *shapes*.

    The benches do not try to match the paper's absolute constants; they
    check that measured message counts scale the way the theorems say
    (e.g. linearly in [n * ID_max] with slope close to 2).  These helpers
    compute the fits and the agreement metrics the tables report. *)

type line = { slope : float; intercept : float; r2 : float }

val linear : (float * float) list -> line
(** Ordinary least squares [y = slope * x + intercept] with the
    coefficient of determination.  Requires at least two points with
    non-constant [x]. *)

val proportional : (float * float) list -> float
(** Best [a] for [y = a * x] (through the origin). *)

val loglog_slope : (float * float) list -> float
(** Slope of [log y] against [log x]; estimates a polynomial degree.
    Points with non-positive coordinates are dropped. *)

val max_rel_err : (float * float) list -> float
(** [max_rel_err pairs] where each pair is [(expected, actual)]:
    the largest [|actual - expected| / max 1 |expected|]. *)
