(** The reference stepper: the oracle {!Sfprogram.Runner} is tested
    against. Each step evaluates every assignment, live or not, with
    {!Expr.eval}, which does the same IEEE operations in the same tree
    order as the bytecode. Its state is a table keyed by variable, and
    each history is shifted by variable, so it shares no slot layout,
    step plan or rotation array with the runner. It is slow; the tests
    and the engines bench use it. *)

type t

val create : Sfprogram.t -> t
(** A stepper at the initial condition [X0 = 0]. *)

val step : t -> inputs:float array -> unit
(** @raise Invalid_argument on an input arity mismatch. *)

val read : t -> Expr.var -> float
(** @raise Invalid_argument on a variable the program never touches. *)

val run :
  Sfprogram.t ->
  stimuli:(float -> float) array ->
  t_stop:float ->
  Amsvp_util.Trace.t
(** The trace {!Sfprogram.Runner.run} records for the same arguments. *)
