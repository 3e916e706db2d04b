(** Symbolic expressions over electrical quantities.

    This is the algebraic substrate of the abstraction methodology: the
    right-hand sides of dipole equations are parsed into abstract syntax
    trees whose leaves are values and variables and whose intermediate
    nodes are operators (paper, §IV-A). The module provides the
    manipulations every later step needs: substitution, linear-form
    extraction, solving for a variable, backward-Euler discretisation of
    [ddt]/[idt], evaluation and printing. *)

(** {1 Variables} *)

(** The physical or signal quantity a leaf refers to. *)
type base =
  | Potential of string * string
      (** [Potential (a, b)] is the branch potential [V(a,b)], the
          potential of node [a] with respect to node [b]. *)
  | Flow of string * string
      (** [Flow (a, b)] is the branch flow [I(a,b)], oriented from [a]
          to [b]. *)
  | Signal of string  (** A named signal-flow quantity. *)
  | Param of string  (** A symbolic parameter (e.g. [R], [C]). *)

type var = { base : base; delay : int }
(** A variable is a quantity sampled [delay] steps in the past;
    [delay = 0] is the current time step. Delayed samples appear when
    derivatives are discretised. *)

val v : base -> var
(** [v b] is the current-time variable over [b]. *)

val potential : string -> string -> var
val flow : string -> string -> var
val signal : string -> var
val param : string -> var

val delayed : var -> int -> var
(** [delayed x k] shifts [x] a further [k] steps into the past. *)

val compare_var : var -> var -> int
val equal_var : var -> var -> bool
val var_name : var -> string
(** Verilog-AMS-style rendering, e.g. ["V(out,gnd)"], with ["@-k"]
    appended for delayed samples. *)

val access_of_string : string -> (var, string) result
(** Parse an access the way a user writes it: ["V(a,b)"], ["V(a)"]
    (the potential of [a] against ["gnd"]), ["I(a,b)"], ["I(a)"] (the
    flow of the branch named [a]) or a bare signal name. Blanks around
    the whole and around each name are ignored; an empty name is an
    error. The one parser behind every [--out]/[--probe] option, the
    sweep spec's [output] and signal-flow program files. *)

val var_c_name : var -> string
(** A C identifier for the variable, e.g. ["V_out_gnd"] or
    ["V_out_gnd_m1"] for one step in the past. *)

module Var_map : Map.S with type key = var
module Var_set : Set.S with type elt = var

(** {1 Expressions} *)

type unary_fun = Sin | Cos | Exp | Ln | Sqrt | Abs | Tanh

type cmp = Lt | Le | Gt | Ge

type t =
  | Const of float
  | Var of var
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Ddt of t  (** time derivative, Verilog-AMS [ddt()] *)
  | Idt of t  (** time integral, Verilog-AMS [idt()] *)
  | App of unary_fun * t
  | Cond of cond * t * t
      (** [Cond (c, a, b)] is [a] when [c] holds, else [b]; models
          if/else contributions and piecewise-linear devices. *)

and cond =
  | Cmp of cmp * t * t
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

val const : float -> t
val var : var -> t
val zero : t
val one : t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val neg : t -> t
val scale : float -> t -> t

(** {1 Structure} *)

val vars : t -> Var_set.t
(** All variables occurring in the expression (including inside
    conditions). *)

val fold_vars : ('a -> var -> 'a) -> 'a -> t -> 'a
(** Fold over every variable occurrence, conditions included, without
    building a set. *)

val contains_var : var -> t -> bool

val contains_ddt : t -> bool
(** True if a [Ddt] or [Idt] node occurs anywhere — the "derivative
    flag" the paper attaches to tree elements (§IV-A). *)

val subst : (var -> t option) -> t -> t
(** [subst f e] replaces each variable [x] with [f x] when it is
    [Some _]. *)

val delay_expr : int -> t -> t
(** Shift every variable of the expression [k] steps into the past.
    @raise Invalid_argument if the expression still contains
    [Ddt]/[Idt] nodes (discretise first). *)

(** {1 Evaluation} *)

val apply_fun : unary_fun -> float -> float
(** Pointwise semantics of the unary functions. Every evaluator
    ({!eval}, the bytecode, the abstract interpreter's exact case) must
    route through this single definition so their results stay
    bit-identical. *)

exception Continuous_time of string
(** A continuous-time operator ([Ddt] or [Idt]) reached a stage that
    needs a discrete-time expression: {!eval}, {!discretize} (for
    [Idt]), or [Solve]'s trapezoidal rewrite (for [Idt]). The message
    names the stage. *)

val fun_name : unary_fun -> string
(** Source name of a unary function ([sin], [ln], [abs], ...): the one
    name table behind {!pp}, the program text format and bytecode
    shape keys. *)

val cmp_name : cmp -> string
(** Source spelling of a comparison ([<], [<=], [>], [>=]). *)

val eval : (var -> float) -> t -> float
(** Evaluate under an environment.
    @raise Continuous_time on [Ddt]/[Idt] nodes — continuous-time
    operators cannot be evaluated pointwise; discretise first. *)

(** {1 Algebra} *)

val simplify : t -> t
(** Constant folding and neutral-element elimination through the smart
    constructors, where [0.0] matches either zero. It keeps the value of
    an expression whose intermediate values are all finite, up to the
    sign of a zero, but not on special values (ROADMAP item 13):
    - [x * 0.0] and [0.0 * x] fold to [+0.0], where IEEE gives NaN for
      an infinite or NaN [x] and [-0.0] when the signs differ;
    - [0.0 / e] folds to [+0.0], where IEEE gives NaN for [e] zero or
      NaN and [-0.0] when the signs differ;
    - [e + 0.0], [0.0 + e] and [e - 0.0] drop the zero, which is wrong
      for [e = -0.0] in [e + 0.0] and [e - (-0.0)] ([+0.0] in IEEE);
    - [0.0 - e] becomes [-e], which is wrong for [e = 0.0]. *)

val linear_form : t -> ((var * float) list * float) option
(** [linear_form e] writes [e] as [sum_i c_i * x_i + k] if [e] is an
    affine combination of variables with constant coefficients.
    Returns [None] for nonlinear expressions, conditionals or
    un-discretised [Ddt]/[Idt]. Coefficients are merged per variable
    and zero coefficients dropped. *)

val of_linear_form : (var * float) list * float -> t
(** Rebuild an expression from a linear form (simplified). *)

val discretize : dt:float -> t -> t
(** Backward-Euler discretisation: innermost-first,
    [ddt(e)] becomes [(e - e@-1) / dt]. Nested derivatives yield
    second-order differences. [Idt] nodes must be removed with
    {!extract_idt} beforehand.
    @raise Continuous_time if an [Idt] node remains. *)

val extract_idt : fresh:(unit -> string) -> t -> t * (var * t) list
(** [extract_idt ~fresh e] replaces each [idt(u)] node with a fresh
    signal variable [s] and returns the companion update equations
    [s = s@-1 + dt_param * u] where [dt_param] is the parameter
    ["__dt"]. The returned list is ordered innermost first. *)

val dt_param : var
(** The reserved parameter ["__dt"] denoting the discretisation step. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Verilog-AMS-flavoured rendering, parenthesised by precedence. *)

val to_string : t -> string

val pp_tree : Format.formatter -> t -> unit
(** Indented tree dump used to reproduce the paper's Fig. 6/7 views. *)
