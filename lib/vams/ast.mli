(** Abstract syntax for the supported Verilog-AMS subset.

    The subset covers what the paper's models exercise (§III, Fig. 2):
    modules with electrical ports and internal nets, named branches,
    real parameters (with scale-factor literals), analog blocks made of
    contribution statements ([<+]) over potential and flow accesses,
    [ddt]/[idt] and math functions, conditionals, and hierarchical
    instantiation with parameter overrides.

    Every node carries the {!Amsvp_diag.Diag.span} of the token that
    opened it, so elaboration errors and lint findings can point at
    [file:line:col].

    The VHDL-AMS front-end ([Amsvp_vhdlams.Vparser]) lowers its subset
    onto this same tree, so one elaborator and one lint serve both
    languages. *)

type span = Amsvp_diag.Diag.span

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr = { edesc : expr_desc; espan : span }

and expr_desc =
  | Number of float
  | Ident of string  (** parameter or net reference *)
  | Access of string * string list
      (** [Access ("V", [a; b])] is [V(a,b)]; [Access ("I", [br])] may
          name a single net (flow to ground), a named branch, or a
          pair. *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list  (** [ddt], [idt], [sin], [exp], ... *)
  | Ternary of expr * expr * expr

type stmt = { sdesc : stmt_desc; sspan : span }

and stmt_desc =
  | Contribution of expr * expr  (** [access <+ rhs] *)
  | Assign of string * expr
      (** [x = rhs;] — a procedural (analog real) variable assignment;
          the elaborator substitutes the value symbolically at use
          sites, folding enclosing conditions in *)
  | If of expr * stmt list * stmt list
      (** [if (c) ...; else ...] — both branches are statement lists *)

type direction = Inout | Input | Output

type item = { idesc : item_desc; ispan : span }

and item_desc =
  | Port_direction of direction * string list  (** [inout a, b;] *)
  | Net_decl of string * string list  (** [electrical n1, n2;] *)
  | Ground_decl of string list  (** [ground gnd;] *)
  | Branch_decl of (string * string) * string list
      (** [branch (a,b) br1, br2;] *)
  | Parameter of { name : string; default : expr option; local : bool }
      (** [parameter real r = 5k;]. A [local] one (a VHDL-AMS
          [constant]) takes no instance override; a [None] default (a
          VHDL-AMS generic declared without one) must be overridden by
          every instance. *)
  | Analog of stmt list  (** [analog begin ... end] *)
  | Instance of {
      module_name : string;
      instance_name : string;
      overrides : (string * span * expr) list;
          (** [#(.r(5k))]: name, the span of the name, value *)
      connections : (string * string) list;  (** [.p(in)] *)
    }

type module_def = {
  name : string;
  ports : string list;
  items : item list;
  mspan : span;
}

type design = module_def list

val find_module : design -> string -> module_def option

val pp_expr : Format.formatter -> expr -> unit
