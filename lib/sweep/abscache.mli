(** Structure-keyed abstraction cache for parameter sweeps.

    Sweep points share one circuit structure and differ only in
    parameter values, so most of the Fig.-4 flow is redundant work: the
    topology (KCL/KVL) equations are value-free, and the assembler's
    choice of which equation class defines which quantity depends only
    on the sparsity pattern, not on the coefficients.

    [build] runs the flow ({!Amsvp_core.Flow.run}) up to assemble once on a
    representative circuit and records the {e plan}: for every defined
    quantity, the id of the consumed equation class and whether it was
    defined through its own derivative.  [rebind] then replays the plan
    on a same-structure circuit with different values — recomputing
    only the (cheap) dipole equations, re-solving each recorded class
    for its recorded pseudo-variable and running the numeric Solve step
    — skipping enrichment and the backtracking assembler entirely.

    The replay relies on two invariants of the flow: {!Eqmap} class ids
    are sequential insertion indices, and {!Enrich} inserts the dipole
    classes first (in netlist order) followed by the Kirchhoff classes.
    When a recorded rearrangement is no longer possible (a coefficient
    vanished under the new values), [rebind] returns [None] and the
    caller falls back to the full per-point abstraction. *)

type t

val build :
  ?mode:Amsvp_core.Solve.mode ->
  ?integration:Amsvp_core.Solve.integration ->
  ?spans:Amsvp_core.Flow.spans Lazy.t ->
  name:string ->
  dt:float ->
  Amsvp_netlist.Circuit.t ->
  outputs:Expr.var list ->
  t
(** Record the plan from a representative circuit.  The circuit must
    already carry its probes ({!Amsvp_core.Flow.insert_probes}) so that
    the sweep overrides and the replay see the same structure.
    @raise Amsvp_diag.Diag.Rejected with the first error finding of the
    run (topology, solvability or assemble), located through [spans]
    when given. *)

val key : t -> string
(** The {!Amsvp_netlist.Circuit.structure_key} the plan was built
    from. *)

val definitions : t -> int
(** Number of recorded definitions (the cone of influence size). *)

val rebind : t -> Amsvp_netlist.Circuit.t -> Amsvp_sf.Sfprogram.t option
(** Replay the plan on a same-structure circuit.  [None] when the
    structure key differs, a recorded rearrangement fails under the new
    values, or the numeric solve rejects the rebound system — in every
    case the caller should run the full abstraction instead. *)

val compiled_for : t -> Amsvp_sf.Sfprogram.t -> Amsvp_sf.Compile.t option
(** Re-target the plan's bytecode template (compiled once, at {!build}
    time, from the solved representative) at a program returned by
    {!rebind}: same schedule and register allocation, new constant
    pool.  [None] when the solver produced a structurally different
    program at this point (or the representative itself would not
    solve) — the runner then compiles that program from scratch. *)
