(** Dense matrices and LU decomposition.

    The conservative back-ends need exactly one linear-algebra
    primitive: solving [A x = b] for the modest matrix sizes of
    electrical linear networks. Partial pivoting keeps the
    high-gain op-amp stamps well conditioned. *)

type t
(** A dense square matrix. *)

val create : int -> t
(** [create n] is the [n x n] zero matrix. [n >= 0]. *)

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] accumulates [v] into [m.(i).(j)] — the stamping
    primitive. *)

type lu = private {
  ln : int;  (** dimension *)
  lu : float array;
      (** packed row-major: L's multipliers below the diagonal (its
          unit diagonal implied), U on and above it *)
  perm : int array;  (** factored row [i] is original row [perm.(i)] *)
}
(** An LU factorisation with partial pivoting. *)

exception Singular of int
(** Raised (with the offending pivot column) when the matrix is
    numerically singular — e.g. a floating subcircuit or a loop of
    ideal voltage sources. *)

val lu_factor : t -> lu
(** Factor a copy of the matrix; the argument is not modified. *)

val pivot_range : lu -> float * float
(** [(min, max)] pivot magnitudes (the U diagonal) of a factorisation.
    Their ratio is a cheap conditioning proxy used by the solver
    telemetry: a ratio approaching [1/epsilon] means the solve has
    little precision left. *)

val lu_solve : lu -> float array -> float array
(** [lu_solve lu b] solves [A x = b]; [b] is not modified. *)

val lu_solve_into : lu -> b:float array -> x:float array -> unit
(** Allocation-free variant used in simulation inner loops; [b] and [x]
    may not alias. *)

val solve : t -> float array -> float array
(** One-shot [factor + solve]. *)

val mat_vec : t -> float array -> float array
(** Matrix-vector product, for tests. *)
