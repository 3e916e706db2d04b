(** Sound abstract interpretation of signal-flow programs.

    The domain is an interval over the {e finite} doubles extended with
    three independent possibility flags for NaN, [+inf] and [-inf]: the
    concretisation of [{lo; hi; nan; pinf; ninf}] is
    [[lo, hi] ∪ {NaN if nan} ∪ {+inf if pinf} ∪ {-inf if ninf}].
    Endpoints are computed with ordinary round-to-nearest operations
    and nudged outward by the involved rounding steps, so every value
    the bytecode or [Expr.eval] can produce is inside the abstraction.

    Two analyses are built on the domain, and both interpret a compiled
    artifact ({!Compile.t}) through {!Compile.exec_with}: the
    instructions and history rotations the runners execute, not the
    expression trees they came from.

    - {!analyze} runs the whole program's step (every assignment
      live) abstractly to a widened fixpoint — a MAY analysis whose
      per-target ranges over-approximate every reachable value,
      powering the AMS06x lint passes;
    - {!prove_unhealthy_compiled} follows the exact step sequence of
      the artifact the sweep engine runs without joining across
      steps — a MUST analysis: when the whole abstract output at some
      step is non-finite (or finite but beyond the amplitude budget),
      {e every} concrete run in the analysed box trips the
      corresponding health watchdog, which is what lets the sweep
      engine skip provably-bad parameter sub-regions. *)

module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile

(** {1 Domain} *)

type itv = {
  lo : float;  (** finite lower bound; [lo > hi] encodes "no finite value" *)
  hi : float;  (** finite upper bound *)
  nan : bool;  (** NaN is a possible value *)
  pinf : bool;  (** [+inf] is a possible value *)
  ninf : bool;  (** [-inf] is a possible value *)
}

val const : float -> itv
(** The singleton — non-finite values land in the flags. *)

val interval : float -> float -> itv
(** [interval lo hi]: all values in the closed range; infinite
    endpoints set the corresponding flag.
    @raise Invalid_argument on NaN endpoints or [lo > hi]. *)

val join : itv -> itv -> itv
val widen : itv -> itv -> itv
(** [widen old next] jumps unstable bounds to the next magnitude
    threshold, guaranteeing fixpoint termination. *)

val leq : itv -> itv -> bool
val mem : float -> itv -> bool
(** [mem v i]: is the concrete value [v] (NaN and infinities included)
    inside the concretisation of [i]? The soundness relation. *)

val has_finite : itv -> bool

val singleton : itv -> float option
(** [Some c] when the abstraction proves the value is exactly the
    finite constant [c] (no flags, [lo = hi]). *)

val may_non_finite : itv -> bool

val definitely_non_finite : itv -> bool
(** No finite value is possible, yet some value is — every concrete
    outcome is NaN or an infinity. *)

val definitely_unhealthy :
  ?amplitude:float -> itv -> [ `Nonfinite | `Amplitude ] option
(** Every concrete value in the abstraction would trip a health
    watchdog: it is non-finite, or finite with magnitude strictly
    above [amplitude]. [`Nonfinite] when no finite value is possible;
    [`Amplitude] when some finite value is (non-finite ones may be
    possible too). [None] on [bot] (no value — nothing provable) or
    whenever a healthy value remains possible. *)

val to_string : itv -> string

(** {1 Transfer functions} *)

val div : itv -> itv -> itv

(** {1 Whole-program MAY analysis} *)

type analysis = {
  a_program : Sfprogram.t;
  a_inputs : (string * itv) list;  (** the input box the analysis assumed *)
  a_targets : (Expr.var * itv) list;
      (** per-assignment value range, sound for every step of every
          concrete run with inputs inside the box *)
  a_outputs : (Expr.var * itv) list;
      (** per-output trace range (includes the initial 0 sample) *)
  a_div_sure : Expr.var list;
      (** assignments containing a division whose divisor is provably
          zero at every step *)
  a_div_may : Expr.var list;
      (** assignments containing a division whose divisor may be zero *)
  a_dead : Expr.var list;
      (** assignment targets with no path to any output *)
  a_steps : int;  (** exact abstract steps taken before stabilisation *)
  a_widened : bool;  (** widening (or the top fallback) was needed *)
}

val analyze : ?inputs:(string * itv) list -> Sfprogram.t -> analysis
(** Fixpoint analysis over the artifact of [Sfprogram.plan ~reads]
    given every target: exact abstract steps while new states appear
    (at most 64), then widening iterations until the accumulated state
    is inductive. Ranges are read from the target slots, divisor ranges
    from the division instructions, each reported on every assignment
    that contains it ({!Compile.div_targets}). Inputs default to the
    unit box [[-1, 1]] per input signal not named in [inputs]. *)

(** {1 Step-accurate MUST proofs} *)

type bad = {
  b_kind : [ `Nonfinite | `Amplitude ];
  b_step : int;  (** first step whose output is provably unhealthy *)
  b_time : float;  (** [b_step * dt] *)
}

val prove_unhealthy_compiled :
  ?max_steps:int ->
  ?amplitude:float ->
  ?pool:itv array ->
  inputs:(int -> itv array) ->
  Sfprogram.t ->
  Compile.t ->
  bad option
(** Run the program's compiled bytecode through {!Compile.exec_with}
    over intervals — the very artifact the sweep engine runs —
    following the exact abstract step sequence (no joins across steps,
    at most [max_steps], default 256), and return the first step at
    which the first output is {!definitely_unhealthy}.
    [inputs k] gives the abstract inputs of step [k] (1-based) —
    exact singletons when the stimulus is known. [pool] defaults to
    the artifact's own constants; to cover a whole family of rebound
    programs in one run, pass the hull of their constant pools.
    [Some _] is a proof that {e every} concrete run in the box is
    reported unhealthy; [None] proves nothing.
    @raise Invalid_argument on an artifact/program slot mismatch or a
    wrong pool size. *)
