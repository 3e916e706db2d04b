(** Conservative transient simulation back-ends: one kernel, two
    drivers.

    One MNA solver kernel advances a shared state by one reporting step
    at a time, mirroring the cost structure of the tools the paper
    measures, and is driven two ways:

    - the whole-run engines ({!spice_like}, {!eln_like}) loop the kernel
      over [t_stop / dt] steps, sampling the stimuli at every substep,
      recording a trace and summarising the run in the journal — the
      Verilog-AMS reference runs of Tables I–II;
    - the steppers ({!Spice_stepper}, {!Eln_stepper}) advance it one
      step per call with inputs held over the step — the lock-step
      co-simulation of Table III.

    Two fidelities share that kernel:

    - {!spice_like} — the Verilog-AMS/ELDO stand-in and accuracy
      reference. It refines every reporting step into [substeps]
      internal steps and, at each, re-evaluates all devices
      (re-assembly) and re-factors the matrix for each of
      [iterations] solver passes, like a SPICE engine re-linearising
      at every Newton iteration. The sparse solve + device evaluation
      are "the two most serious bottlenecks" (§III-B [5]).
    - {!eln_like} — the SystemC-AMS/ELN stand-in: the network equations
      are set up and factored {e once} (linear network, fixed step);
      each step costs one RHS build plus one triangular solve. *)

type stats = {
  steps : int;  (** reporting steps taken *)
  device_evals : int;  (** full device-evaluation (assembly) passes *)
  factorizations : int;
  solves : int;
}

type newton = {
  total_iters : int;  (** Newton passes taken (fixed budget) *)
  wasted_iters : int;
      (** passes taken {e after} the update norm already met tolerance
          — the budget an adaptive early-exit scheme would save *)
  max_residual : float;  (** worst final update norm over all substeps *)
  pivot_min : float;  (** smallest LU pivot magnitude seen *)
  pivot_max : float;  (** largest LU pivot magnitude seen *)
  dt_stress : float;
      (** largest relative state change within one substep; values near
          or above 1 mean the internal step is not small against the
          local time constant *)
  stressed_substeps : int;  (** substeps whose relative change > 0.5 *)
}
(** Solver-convergence telemetry for one {!spice_like} run. With
    [`Paper] it is only computed while the {!Amsvp_obs.Journal} is
    enabled — the residual norms have no other consumer there, so with
    the journal off the inner loop is byte-for-byte the pre-telemetry
    loop. With [`Fast] it is always computed: the update norm and the
    stress drive the early exit and the substep controller (a linear
    network's one exact solve converges at pass 1, update norm 0).
    With the journal on, a run journals these fields as one
    [newton.run] record with its steps counted per decade of their
    final update norm ([residual_le_<bound>]) and per pass converged
    at ([converged_at_<k>], 0 = never), and a [newton.step] event only
    for a step that never converged, was redone with more substeps or
    moved its state by more than half. *)

type result = {
  trace : Amsvp_util.Trace.t;
  stats : stats;
  matrix_dim : int;
  newton : newton option;
      (** With [`Paper], [Some] iff the journal was enabled during the
          run; always [Some] with [`Fast]; always [None] for
          {!eln_like}, which has no Newton loop. *)
}

val spice_like :
  ?substeps:int ->
  ?iterations:int ->
  ?fidelity:[ `Paper | `Fast ] ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_netlist.Circuit.t ->
  inputs:(string * Amsvp_util.Stimulus.t) list ->
  output:Expr.var ->
  dt:float ->
  t_stop:float ->
  result
(** [spice_like ckt ~inputs ~output ~dt ~t_stop] simulates from 0 to
    [t_stop], recording [output] every [dt]. Default [substeps = 8],
    [iterations = 3]. [observe] is called at every reporting instant
    (including t = 0) with a reader over the solved MNA state — the
    waveform-probe attachment point; absent, it costs one branch per
    reporting step.

    [fidelity] selects the cost model (default [`Paper]):
    - [`Paper] reproduces the SPICE cost structure bit-identically to
      previous releases: every Newton pass of every substep re-stamps
      the dense matrix and re-factors it, with a fixed
      [substeps * iterations] budget.
    - [`Fast] keeps the same circuit equations but solves them the way
      a production simulator would: sparse LU with the symbolic
      factorisation reused across steps, numeric factors reused until
      the timestep or a piecewise-linear region changes, Newton
      early-exit on the update norm, one factorisation total for a
      linear network, and adaptive substepping (1..[substeps],
      refined by a local-truncation-error estimate). For reporting
      steps that resolve the circuit's time constants (the bench and
      sweep operating points) traces agree with [`Paper] within the
      health-watchdog NRMSE budget, but they are not bit-identical —
      and at [dt] comparable to the fastest time constant the adaptive
      controller trades accuracy for the remaining speed; [stats]
      counts the work actually done. With
      [`Fast] the [newton] telemetry in the result is always populated
      ([wasted_iters] is 0 by construction).
    @raise Invalid_argument on a missing input signal or bad step. *)

val eln_like :
  Amsvp_netlist.Circuit.t ->
  inputs:(string * Amsvp_util.Stimulus.t) list ->
  output:Expr.var ->
  dt:float ->
  t_stop:float ->
  result
(** Fixed-step linear-network engine: an {!Eln_stepper} driven over
    the run.
    @raise Invalid_argument on piecewise-linear devices, a missing
    input signal or a bad step. *)

(** Step-wise interface to the ELN engine, for embedding the linear
    network inside a discrete-event kernel (the SystemC-AMS use case):
    the matrix is factored at creation (dense, partial pivoting), each
    [step] performs one RHS build and one triangular solve over the
    factor's nonzero entries ({!Sparse.of_dense}). *)
module Eln_stepper : sig
  type t

  val create :
    Amsvp_netlist.Circuit.t ->
    inputs:string list ->
    output:Expr.var ->
    dt:float ->
    t
  (** [inputs] declares the input signal order used by [step]. *)

  val step : t -> input_values:float array -> float
  (** Advance one timestep with the given input samples (ordered as the
      [inputs] list) and return the output quantity.
      @raise Invalid_argument on an arity mismatch, naming the expected
      and actual input counts. *)

  val read : t -> Expr.var -> float
  (** Evaluate any circuit quantity (node potential or branch flow)
      from the current state — used by waveform probes. *)
end

(** Step-wise interface to the SPICE-like engine, for lock-step
    co-simulation with a digital simulator (the Questa-ADMS use case of
    Table III): every [step] runs the same kernel as {!spice_like} for
    one reporting step, with the inputs held over its substeps. Under a
    constant stimulus its outputs and work counters match
    {!spice_like}'s bit for bit, in either fidelity. *)
module Spice_stepper : sig
  type t

  val create :
    ?substeps:int ->
    ?iterations:int ->
    ?fidelity:[ `Paper | `Fast ] ->
    Amsvp_netlist.Circuit.t ->
    inputs:string list ->
    output:Expr.var ->
    dt:float ->
    t
  (** [fidelity] as in {!spice_like} (default [`Paper]). With [`Fast]
      the factor cache and the adaptive substep count persist across
      [step] calls — symbolic-factorisation reuse is what makes
      lock-step co-simulation cheap. *)

  val step : t -> input_values:float array -> float
  (** @raise Invalid_argument on an arity mismatch, naming the expected
      and actual input counts. *)

  val read : t -> Expr.var -> float
  (** Evaluate any circuit quantity from the current state. *)
end

val run_testcase_spice :
  ?substeps:int ->
  ?iterations:int ->
  ?fidelity:[ `Paper | `Fast ] ->
  Amsvp_netlist.Circuits.testcase ->
  dt:float ->
  t_stop:float ->
  result
(** Convenience wrapper running a paper test case. *)

val run_testcase_eln :
  Amsvp_netlist.Circuits.testcase -> dt:float -> t_stop:float -> result
