(** Solution of the linear equations (paper §IV-C, Fig. 7).

    The assembled definitions still mention current-time quantities on
    their right-hand sides — in particular the defined quantity itself,
    introduced by discretised derivatives. Interpreting [=] as an
    assignment would add a spurious one-step delay, so those
    occurrences must be eliminated (§IV-C).

    The definitions are first discretised (backward Euler), then the
    graph of current-time references is decomposed into strongly
    connected components. Each component is solved exactly: a single
    self-referencing definition by the scalar rearrangement of Fig. 7,
    a larger algebraic component (e.g. an op-amp feedback loop) by
    Gaussian elimination over its members. Components are emitted in
    dependency order, so the resulting program is a valid sequence of
    assignments.

    In [`Relaxed] mode, a derivative whose argument involves the
    quantity being defined or a not-yet-computed one is discretised one
    step behind ([ddt x ~ (x@-1 - x@-2)/dt]): this breaks the
    state-to-state coupling, keeping the generated code's cost linear
    in circuit size instead of quadratic, at a small accuracy cost —
    the NRMSE degradation the paper reports for its generated models
    against the conservative reference. Algebraic (derivative-free)
    loops are always solved exactly, so high-gain feedback stays
    stable. [`Auto] (the default) picks [`Exact] for small cones and
    [`Relaxed] beyond 16 definitions. *)

type mode = [ `Exact | `Relaxed | `Auto ]

exception Nonlinear of Expr.var
(** A definition is not affine in the unknowns (outside the linear
    scope of the methodology). *)

exception Underdetermined of string
(** The assembled system is numerically singular. *)

type fidelity = [ `Paper | `Fast ]
(** Cost model of the conservative reference engine downstream stages
    simulate against (the structural vocabulary shared by the flow
    report, sweep specs, the daemon and the CLI): [`Paper] reproduces
    the SPICE cost structure of the source paper bit-identically;
    [`Fast] solves the same equations with reused sparse factors,
    Newton early-exit and adaptive substepping — bounded-error, much
    faster (see {!Amsvp_mna.Engine.spice_like}). *)

val fidelity_to_string : fidelity -> string
(** ["paper"] / ["fast"] — the sweep-spec and CLI spelling. *)

val fidelity_of_string : string -> (fidelity, string) result

type integration = [ `Backward_euler | `Trapezoidal ]
(** Integration rule used when discretising (default backward Euler).
    Trapezoidal integration gives second-order accuracy: state updates
    become [x = x@-1 + dt/2 (f_t + f_{t-1})] and remaining derivatives
    are computed by the trapezoidal differentiator
    [s = (2/dt)(arg - arg@-1) - s@-1] through auxiliary quantities. *)

(** {1 Solver plan}

    Every solve also produces a record of the decisions taken, consumed
    by {!Explain} / [amsvp explain]: nothing here affects the generated
    program, it only makes the solution auditable. *)

type pivot = { pivot_var : Expr.var; pivot_mag : float }
(** One Gauss-Jordan pivot: the member variable the column solves for
    and the magnitude of the chosen pivot element (after partial
    pivoting) — small magnitudes flag near-singular components. *)

type elimination = { members : Expr.var list; pivots : pivot list }
(** One eliminated strongly-connected component. *)

type plan = {
  effective_mode : [ `Exact | `Relaxed ];
      (** what [`Auto] resolved to (or the explicit request) *)
  integration_used : integration;
  lagged : Expr.var list;
      (** state variables whose forward references the relaxation
          turned into previous-step reads, sorted by name *)
  eliminations : elimination list;
      (** in solve order; for a piecewise-linear model, the
          all-conditions-true region stands in for all regions *)
  regions : int;  (** 1 for linear models, 2^k for PWL *)
  ddt_aux : int;
      (** trapezoidal-differentiator auxiliaries introduced *)
}

val solve :
  ?mode:mode ->
  ?integration:integration ->
  name:string ->
  dt:float ->
  Assemble.result ->
  Amsvp_sf.Sfprogram.t
(** Discretise the assembled definitions under [integration] and solve
    them into a signal-flow program.
    @raise Expr.Continuous_time when a definition still holds an [idt]
    node (the assembler's definitions never do). *)

val solve_with_plan :
  ?mode:mode ->
  ?integration:integration ->
  name:string ->
  dt:float ->
  Assemble.result ->
  Amsvp_sf.Sfprogram.t * plan
(** [solve] plus the decision record. *)

val solved_assignments :
  ?integration:integration ->
  dt:float ->
  Assemble.result ->
  (Expr.var * Expr.t) list
(** The explicit update rules without program packaging (used by the
    Fig. 7 walkthrough and by tests). *)

