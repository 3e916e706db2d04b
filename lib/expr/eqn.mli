(** Equations over electrical quantities.

    An equation relates two expressions. Dipole (constitutive)
    equations come from devices, Kirchhoff equations from the network
    topology (paper §IV-B), and derived equations are the rearranged
    variants inserted by the enrichment step (Algorithm 1). *)

type origin =
  | Dipole of string  (** constitutive equation of the named device *)
  | Kcl of string  (** current law at the named node *)
  | Kvl of int  (** voltage law around fundamental loop [i] *)
  | Derived  (** produced by solving an equation for one of its terms *)
  | Explicit  (** signal-flow contribution written by the designer *)

type t = private {
  id : int;  (** unique id, assigned at creation *)
  lhs : Expr.t;
  rhs : Expr.t;
  origin : origin;
}

val make : origin -> lhs:Expr.t -> rhs:Expr.t -> t
(** Create an equation with a fresh id. *)

val residual : t -> Expr.t
(** [residual eq] is [lhs - rhs]; the equation states it is zero. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Linear view}

    The abstraction methodology targets electrical {e linear} networks
    (§IV); derivatives are kept symbolic, so the linear view is over
    pseudo-variables: a quantity [x] and its derivative [ddt(x)] are
    independent unknowns until discretisation. *)

type pseudo =
  | Cur of Expr.var  (** the quantity itself *)
  | Der of Expr.var  (** its first time derivative *)

val compare_pseudo : pseudo -> pseudo -> int
val pseudo_name : pseudo -> string

val plinear_form : Expr.t -> ((pseudo * float) list * float) option
(** Affine decomposition over pseudo-variables. [ddt] distributes over
    its (necessarily affine) argument; nested derivatives, [idt],
    conditionals and products of unknowns yield [None]. *)

val unknowns : t -> pseudo list
(** The pseudo-variables of the residual, when it is linear; [[]] when
    the equation is nonlinear. *)

val solve_for : pseudo -> t -> Expr.t option
(** [solve_for p eq] rearranges a linear equation to express [p] in
    terms of the remaining pseudo-variables, i.e. the [Solve] routine
    of Algorithm 1. Returns [None] if the equation is nonlinear in the
    sense of {!plinear_form}, does not mention [p], or mentions it with
    a vanishing coefficient. *)

val is_linear : t -> bool

