(** Signal-flow programs: the output of the abstraction methodology.

    A program is an ordered list of explicit assignments computing the
    outputs of interest from the inputs and from past values of the
    computed quantities (Equation 1 of the paper, in discrete time).
    The same program is executed by the plain tight-loop runner (the
    "C++" rows of Tables I–III), wrapped into discrete-event or TDF
    modules by [amsvp_sysc], and pretty-printed by [amsvp_codegen]. *)

type assignment = { target : Expr.var; expr : Expr.t }
(** [expr] may reference input signals, previously assigned targets of
    the same step, and delayed samples of any target. It must be free
    of [ddt]/[idt] (already discretised) and of unresolved parameters. *)

type t = {
  name : string;
  inputs : string list;  (** external input signal names *)
  outputs : Expr.var list;  (** in declaration order *)
  assignments : assignment list;  (** in execution order *)
  dt : float;  (** the discretisation step baked into coefficients *)
}

val make :
  name:string ->
  inputs:string list ->
  outputs:Expr.var list ->
  assignments:assignment list ->
  dt:float ->
  t
(** Validates the program: every variable read by an assignment must be
    an input, a previously assigned target (current time), or a delayed
    sample of some target; outputs must be assigned.
    @raise Invalid_argument describing the first violation. *)

exception Undefined of string
(** A read of a quantity no assignment defines, or an output that is
    never assigned; the message names both. *)

exception Read_before_assigned of { reader : Expr.var; var : Expr.var }
(** The assignment to [reader] reads [var] at the current time before
    the assignment to [var], later in the same step. *)

val read_before_assigned_message : Expr.var -> Expr.var -> string
(** [read_before_assigned_message reader var]: the text {!make}'s
    [Invalid_argument] gives for that ordering violation. *)

val validate : t -> unit
(** The check {!make} runs, for a program built as a record.
    @raise Undefined on an undefined quantity or output
    @raise Read_before_assigned on the first ordering violation
    @raise Invalid_argument on any other violation (duplicates,
    residual [ddt]/[idt] or parameters). *)

val max_delay : t -> int
(** Deepest history referenced by any assignment (0 when the program is
    purely combinational). *)

val state_vars : t -> Expr.var list
(** Targets whose past samples are referenced (the discrete state X of
    Equation 1). *)

val dead_targets : t -> Expr.var list
(** Targets of the assignments that are not {e live}, in execution
    order. An assignment is live when its target is an output or is
    read (at any delay) by a live assignment. {!compile} lowers only
    live assignments, and so do the runners unless
    [Runner.create ~reads] widens the set; the lint's dead-definition
    finding reports the rest. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing of the program. *)

(** {1 Compilation}

    Programs execute as the register bytecode of {!Compile}: a flat
    instruction array over an unboxed float file. {!Reference} steps
    the same programs by evaluating their trees, with none of the
    machinery below; it is the oracle the bytecode is tested against. *)

(** {2 Slot layout}

    The canonical slot layout the runner, the code generator and the
    abstract interpreter share: a deterministic function of the program
    structure alone (inputs in declaration order, then targets, then
    history levels), so same-shaped programs get identical layouts. *)

type layout

val layout_of : t -> layout

val layout_slot : layout -> Expr.var -> int
(** @raise Invalid_argument on a variable the program never touches. *)

val layout_count : layout -> int
(** Number of slots (the [n_slots] of {!Compile}). *)

val layout_input_slots : layout -> int array
(** Slot of each input, in declaration order. *)

val layout_output_slots : layout -> int array
(** Slot of each output, in declaration order. *)

val layout_vars : layout -> Expr.var array
(** The variable of each slot. *)

(** {2 Step plan} *)

type plan = {
  layout : layout;  (** the full program's {!layout_of} *)
  live : (int * Expr.t) list;
      (** (target slot, right-hand side) of each live assignment, in
          execution order *)
  readable : bool array;
      (** per slot: an input or a live quantity, at any delay; every
          other slot stays 0 *)
  rotations : (int * int) array;
      (** history rotations [(dst, src)], applied in order after the
          assignments ([x@-k] receives [x@-(k-1)], deepest level first
          per quantity), of the readable histories only: a history no
          live assignment reads is not rotated *)
}
(** What one step evaluates and keeps. {!compile_plan} lowers it into
    one artifact, rotations included; the runners execute that
    artifact, [Amsvp_codegen] prints it and [Amsvp_analysis.Absint]
    interprets it, so all three work from one lowering. *)

val plan : ?reads:Expr.var list -> t -> plan
(** The plan of the live set of the outputs and of [reads] (default
    none), as for {!Runner.create}. Given every target, it makes every
    assignment live: the whole-program step the value-range analysis
    interprets. *)

val compile_plan : plan -> Compile.t
(** Lower [plan.live] to bytecode against [plan.layout], followed by
    [plan.rotations]. *)

val compile : t -> Compile.t
(** [compile_plan (plan p)]: the live assignments (see {!dead_targets})
    lowered against the full program's canonical slot layout (the one
    {!Runner.create} uses). Every artifact can be {!rebind_compiled}
    onto same-shaped programs; its constant pool holds the live
    assignments' literals only, one position per occurrence. *)

val rebind_compiled : Compile.t -> t -> Compile.t option
(** Re-target an artifact at a program with the same shape
    but different constant values, skipping lowering, scheduling and
    register allocation: the sweep pruner takes each point's constant
    pool from it. {!Runner.rebind} does the same for a runner.
    [None] when the shapes differ; fall back to {!compile}. *)

(** {1 Execution} *)

module Runner : sig
  type program = t

  type t
  (** A compiled instance with its own mutable state, all slots
      preallocated; stepping allocates nothing. One step stores the
      inputs in their slots and is then one {!Compile.exec} of the
      artifact, history rotations included. *)

  val create : ?reads:Expr.var list -> program -> t
  (** The runner evaluates only the live assignments (see
      {!dead_targets}): those an output depends on, plus those the
      caller declares in [reads] (default none) and what they depend
      on. A [reads] entry names a quantity by its base; every delay of
      it becomes readable. Entries the program does not assign are
      ignored here ({!read} still rejects them). Outputs, inputs and
      live quantities keep exactly the values the full program would
      give them; nothing else is computed. *)

  val rebind : t -> program -> t option
  (** [rebind r p]: a runner of [p] on [r]'s code and register file,
      when [p] has the shape of [r]'s program, as a program differing
      only in constant values has (the sweep's plan replay; see
      {!Compile.rebind}). [p] is not planned afresh: it is laid out on
      [r]'s slot layout, live set (under [r]'s [reads]) and rotations,
      and the shape key confirms them. Nothing is compiled, and the
      register file is not reallocated: [p]'s constants are loaded into
      [r]'s registers, and the variable slots keep [r]'s values until
      the next {!reset}, which {!run_into} does first, so a run of it
      is a run of [create ?reads p]. The register file is shared: [r]
      must not be stepped or run afterwards. [None], never an
      exception, when the shapes differ (another live set included),
      when [p]'s inputs or outputs differ from [r]'s program's, or when
      a target or a read of any of [p]'s assignments has no slot in
      [r]'s layout; [r] is then unchanged. *)

  val reset : t -> unit
  (** Zero all state (initial condition [X0 = 0]). *)

  val step : t -> inputs:float array -> unit
  (** Advance one step of [dt]; [inputs] are ordered like
      [program.inputs].
      @raise Invalid_argument on an input arity mismatch, naming the
      program and the expected/actual arities. *)

  val output : t -> int -> float
  (** Value of the i-th output after the last [step]. *)

  val read : t -> Expr.var -> float
  (** Current value of an input or a live quantity, at any delay the
      program keeps.
      @raise Invalid_argument on a variable the program never touches,
      or on one outside the live set (it would silently read 0); the
      message names the variable. *)

  type source =
    | Fn of (float -> float)  (** a stimulus, sampled at each step time *)
    | Table of float array
        (** entry [i] is the input at step [i] (time [i *. dt]), as
            {!Amsvp_util.Stimulus.sample} computes it; at least
            [nsteps + 1] entries *)
  (** Where {!run_into} takes an input's value at each step. A table
      costs no call per step; sweeps share one across every point of
      the same run length. *)

  val run_into :
    t ->
    sources:source array ->
    t_stop:float ->
    ?observe:(float -> (Expr.var -> float) -> unit) ->
    Amsvp_util.Trace.t ->
    unit
  (** Run from time 0 to [t_stop] (nsteps [= round (t_stop /. dt)]
      steps), taking the inputs from [sources] (ordered like
      [program.inputs]) and recording the first output into the trace
      given last, whose previous contents are dropped and whose storage is
      reused. The runner is reset first. This tight loop is the
      "plain C++" execution model; the tick and op counters are added
      once per run, for the steps taken.

      The loop is chosen from the input: when every source is a
      [Table] and no [observe] is given (the sweep and serve path), the
      whole run is one {!Compile.run} call; otherwise (a [Fn] source, a
      probe, a point timeout) each step stores the inputs, calls
      {!Compile.exec} and records the output. Both loops give the same
      trace bit for bit and add the same counts.

      [observe] is called once per step (including the initial state at
      t = 0) with the current time and a reader over the runner's
      variables; it is how waveform probes ([Amsvp_probe]) attach
      without touching the hot loop — when absent, the per-step cost is
      one branch. The reader is {!read}: it raises [Invalid_argument]
      on variables the program does not compute and on those outside
      the live set, so a probe must declare its variables in
      [create ~reads]. An exception from [observe] aborts the run and
      propagates; the trace then holds the samples up to that step.
      @raise Invalid_argument on an input arity mismatch or a table
      shorter than [nsteps + 1]. *)

  val run :
    t ->
    stimuli:(float -> float) array ->
    t_stop:float ->
    ?observe:(float -> (Expr.var -> float) -> unit) ->
    unit ->
    Amsvp_util.Trace.t
  (** {!run_into} a fresh trace, each input sampled from its stimulus
      function at each step. *)
end
