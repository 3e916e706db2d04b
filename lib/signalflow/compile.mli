(** Bytecode compilation of signal-flow programs.

    Walking an equation tree costs one call per AST node and boxes
    every intermediate float; that allocation-per-node cost would
    dominate the hot loop of the abstracted models. This module lowers
    the equation trees of a whole program into a flat, register-based
    bytecode: an array of three-address instructions over a single
    unboxed [float array] register file whose low registers alias the
    runner's variable slots. An artifact is a whole step: after the
    instructions it applies the program's history rotations
    ([x@-k] receives [x@-(k-1)]) as plain register copies. Executing a
    step is one pass over that code with
    no allocation and no indirect calls (beyond [sin]/[exp]-style
    primitives). When an artifact is built it also derives the form
    {!exec} runs (see Executable form below); {!rebind} shares it.

    Lowering goes through a value-numbering DAG, which gives two
    classic optimisations for free, and two more run around it:

    - {e liveness}: [Sfprogram.compile] passes only the assignments
      that reach an output, so a slot no output depends on is never
      computed; the slot layout is the full program's all the same;
    - {e common-subexpression elimination}, across all equations of the
      program: slot reads are keyed by (slot, version), with the
      version bumped at each store, so only genuinely unchanged
      subexpressions unify; literal constants never unify (see
      Templates below);
    - {e dead-register elimination}: instructions are emitted
      demand-first from the assignment roots, so unreferenced nodes
      are never scheduled, and temporaries are re-allocated from a
      free list after their last use;
    - {e sum-of-products rows}: a left-associated sum of products
      such as an RC ladder row [d := k1*x1 + k2*x2 + k3*x3] becomes
      one instruction, [d := ((a0*b0 + a1*b1) + ...)], whose terms may
      also be plain registers. An addition absorbs the instruction
      scheduled right before it while that instruction defines a
      temporary only the addition reads — a product, or a row that is
      the leftmost term — so no slot store falls inside a row, and a
      product that CSE shares stays a separate multiply, scheduled
      ahead of a row it would otherwise split from its leftmost term.
      Execution rounds each product, then each partial sum left to
      right in source order, exactly as [Expr.eval] does — it is not a
      fused [Float.fma].

    A conditional is one [Sel] over a 0.0 / 1.0 condition and its two
    arms. In the code every arm is computed; the executable form (below)
    runs most conditionals lazily. Both are value-identical to
    [Expr.eval]'s lazy evaluation because float operations cannot raise
    or trap here (division by zero and domain errors produce inf/NaN
    either way), and comparisons involving NaN are false in both.

    {2 Executable form}

    The code is what {!pp_code}, {!traffic}, {!n_instrs}, {!exec_with}
    (so [Amsvp_analysis.Absint]) and the generated C++ see. {!exec} and
    {!run} step a form derived from it once, when the artifact is
    built, with the same values bit for bit:

    - {e rows}: each maximal run of consecutive rows of exactly three
      products (the RC-ladder shape) is one block, stepped row by row
      with no term loop, so a ladder pays one dispatch per run rather
      than one per row;
    - {e lazy conditionals}: a conditional whose condition is one
      comparison that nothing else reads, and whose arms are
      temporaries computed by instructions that only their own arm
      reads, is one block that compares the operands inline (no 0/1
      register), runs only the taken arm (the else arm when the
      comparison is false, NaN included) and lets the arm's last
      instruction write the conditional's target. The comparison reads
      come before any arm write, and the target is stored after the
      arm's last read, since a temporary target may share a register
      with an operand. When both arms are one product or row, the block
      evaluates the taken row inline with no dispatch for the arm (the
      piecewise-linear diode's shape); otherwise the arm's instructions
      follow the block, nested conditionals included, and a jump skips
      the arm not taken. The scheduler keeps each such conditional's
      private instructions next to it: results CSE shares with the rest
      of the step move ahead of the comparison and stay eager, as does
      a conditional whose arm CSE shares. {!lazy_conditionals} counts
      the blocks;
    - every other instruction is dispatched on its own, by the one
      [match] of the step.

    {2 Templates}

    Every artifact is a template: lowering never looks at a constant's
    value (no folding, no merging of equal literals) and gives every
    literal occurrence its own constant-pool position. Two programs
    that differ only in constant values (the situation created by the
    sweep engine's rebind-and-re-solve plan replay) therefore share one
    compilation: {!rebind} checks the structural shape and patches the
    constant pool without re-running lowering, scheduling or
    allocation. *)

type t
(** A compiled step: immutable, shareable across runners. Registers
    [0 .. n_slots-1] alias the runner's variable slots; constants and
    temporaries live above. It holds the instructions and the history
    rotations that follow them. *)

val compile :
  slot:(Expr.var -> int) ->
  n_slots:int ->
  rotations:(int * int) array ->
  (int * Expr.t) list ->
  t
(** [compile ~slot ~n_slots ~rotations assigns] lowers [assigns] (pairs
    of target slot and right-hand side, in execution order) into
    bytecode. [slot] must map every variable occurring in the
    right-hand sides to a register below [n_slots]. [rotations] are
    slot copies [(dst, src)], applied in order after the instructions
    (the step plan's history rotations).
    @raise Invalid_argument on a [ddt]/[idt] node (un-discretised
    program) or a slot index out of range. *)

val rebind :
  t ->
  slot:(Expr.var -> int) ->
  n_slots:int ->
  rotations:(int * int) array ->
  (int * Expr.t) list ->
  t option
(** [rebind t ~slot ~n_slots ~rotations assigns] re-targets an artifact
    at a program with the same shape (same slot layout, same
    rotations, same expression structure, same variable occurrences)
    but possibly different constant values: the constant pool is
    replaced, everything else is reused. [None] when the shape
    differs. *)

val n_slots : t -> int
(** Number of low registers aliasing runner slots. *)

val n_regs : t -> int
(** Total register file size ([n_slots] + constants + temporaries);
    the runner must allocate its slot array this large. *)

val n_instrs : t -> int
(** Scheduled instruction count (after CSE and dead-code removal); the
    rotations are not instructions and are not counted. *)

val n_consts : t -> int
(** Constant-pool size. *)

val target_slots : t -> int array
(** Target slot of each compiled assignment, in execution order: the
    live set the artifact evaluates. *)

val div_targets : t -> int array array
(** One entry per division instruction, in execution order: the target
    slots (in assignment order) of every assignment whose right-hand
    side contains that division. A division that common-subexpression
    elimination shares between assignments is one instruction listing
    all of them; an assignment that only reads another's result does
    not contain its divisions. *)

val lazy_conditionals : t -> int
(** Conditionals {!exec} runs lazily, one block of the executable form
    each; every other conditional of the code computes both arms. *)

type traffic = {
  t_reads : int;  (** register reads per executed step *)
  t_writes : int;  (** register writes per executed step *)
  t_flops : int;  (** arithmetic/transcendental operations per step *)
  t_opcode_mix : (string * int) list;
      (** instruction count per mnemonic, sorted by mnemonic *)
}

val traffic : t -> traffic
(** Static per-step register/opcode traffic of the artifact's code.
    The code is straight-line, so these are exact counts of a step
    that computes both arms of every conditional, computed without
    running anything — the runner multiplies by its tick count for
    journal reporting; {!exec}'s lazy conditionals do no more than
    this. Rotations are not counted. A row of k products (mnemonic
    [lin]) counts 2k reads and 2k-1 flops; each plain term adds one
    read and one addition. *)

val load_consts : t -> float array -> unit
(** Preload the constant pool into its registers. Must be called once
    after allocating the register file (constants are never written by
    {!exec}, so one load survives any number of steps and resets).
    @raise Invalid_argument if the array is shorter than {!n_regs}. *)

val exec : t -> float array -> unit
(** Execute one step: evaluate every assignment in order, writing each
    target's register, then apply the rotations. It runs the executable
    form, taken arms only. The array must be the one prepared with
    {!load_consts}; it allocates nothing. *)

val run :
  t ->
  float array ->
  inputs:int array ->
  tables:float array array ->
  out:int ->
  float array ->
  int ->
  unit
(** [run t regs ~inputs ~tables ~out values n] executes steps [1 .. n]
    over [regs] (prepared as for {!exec}): before step [i] it stores
    [tables.(k).(i)] into register [inputs.(k)] for every [k], then runs
    the step {!exec} runs, then stores register [out] into
    [values.(i)]. [values.(0)] and the state before step 1 are the
    caller's. The loop and the step share one body with {!exec}, so a
    run is bit-identical to [n] rounds of stores, [exec] and reads, and
    pays no call per step.
    @raise Invalid_argument if [regs] is shorter than {!n_regs}, the
    table count differs from the input count, an input or [out] is not
    a slot below {!n_slots}, or a table or [values] holds [n] samples
    or fewer. *)

(** {2 Generic execution}

    The code is straight-line, so it can be executed over any
    value domain by supplying the operations — this is how the
    abstract interpreter ([Amsvp_analysis.Absint]) runs the very
    artifact the sweep engine executes, rebound pools included. *)

type 'a interp = {
  i_neg : 'a -> 'a;
  i_add : 'a -> 'a -> 'a;
  i_sub : 'a -> 'a -> 'a;
  i_mul : 'a -> 'a -> 'a;
  i_div : 'a -> 'a -> 'a;
  i_app : Expr.unary_fun -> 'a -> 'a;
  i_cmp : Expr.cmp -> 'a -> 'a -> 'a;
  i_and : 'a -> 'a -> 'a;
  i_or : 'a -> 'a -> 'a;
  i_not : 'a -> 'a;
  i_sel : 'a -> 'a -> 'a -> 'a;  (** condition, then-value, else-value *)
}

val const_pool : t -> float array
(** A copy of the constant pool; [const_pool t].(i) preloads register
    [n_slots t + i] (positional — the pool lines up with {!rebind}'s
    collect order). *)

val exec_with : 'a interp -> t -> 'a array -> unit
(** One step over an arbitrary domain: the caller preloads constants
    (mapped from {!const_pool}) at registers [n_slots t ..] and input
    slots, then each instruction applies the supplied operation (a
    sum-of-products row applies [i_mul] per product term, then
    [i_add] left to right in source order), and the rotations copy
    registers as {!exec} does. [i_div] is called once per division
    instruction, in the order of {!div_targets}.
    @raise Invalid_argument if the register file is shorter than
    {!n_regs}. *)

(** {2 Printing}

    One printer renders the instructions, as C++ statements
    ([d = a * b + c;], conditions as [0.0]/[1.0] doubles, functions as
    [std::log], [std::fabs], ...). Compiled without floating-point
    contraction, each statement rounds exactly as {!exec} does, which
    is what makes the generated C++ models ([Amsvp_codegen]) the
    bytecode the runners execute. One exception: a NaN computed from
    two NaN operands may differ in sign and payload, since C++ leaves
    to the compiler which operand of a [+] or [*] it returns. *)

val pp_code :
  slot:(int -> string) ->
  const:(int -> float -> string) ->
  temp:(int -> string) ->
  Format.formatter ->
  t ->
  unit
(** One statement per instruction, in execution order, then one
    [dst = src;] per rotation, separated by cuts. Registers are named
    by [slot] (slot index), [const] (pool index and value) and [temp]
    (temporary number, from 0). *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing: a summary line, then {!pp_code} with registers
    named [s<slot>], [c<i>{<value>}] and [t<i>]. *)
