(** Sparse LU factorisation for MNA systems.

    The paper notes that "the sparse linear solver and device evaluation
    are two most serious bottlenecks in this kind of simulators"
    (§III-B, citing DATE'15 work on fast sparse solvers). This module
    provides the sparse counterpart of {!Matrix}: {!analyze} keeps rows
    as hash-sparse vectors during one symbolic elimination, choosing
    pivots by a Markowitz-style rule (fewest fill candidates) subject
    to a numerical threshold against the column maximum; {!refactor}
    computes the factors along that fixed pattern, stored as
    compressed sparse rows (flat index and value arrays) for repeated
    forward/backward solves — the access pattern of a fixed-timestep
    linear network. A one-off factorisation is
    [refactor (analyze ~n t) t]. *)

type triplet = int * int * float
(** [(row, col, value)]; duplicate entries accumulate. *)

(** A matrix in compressed sparse rows: row [i]'s entries are
    [ptr.(i) .. ptr.(i+1) - 1] of [col] and [value], by ascending
    column. *)
type csr = private { ptr : int array; col : int array; value : float array }

(** [P A = L U] with unit-diagonal [L]: row [i] of the factors is row
    [perm.(i)] of [A]. Read-only outside this module. *)
type lu = private {
  n : int;
  perm : int array;
  l : csr;  (** strictly lower part of [L] *)
  u : csr;  (** strictly upper part of [U] *)
  diag : float array;  (** diagonal of [U] *)
  nnz : int;
}

exception Singular of int
(** No admissible pivot in the given elimination step. *)

val of_dense : Matrix.lu -> lu
(** The nonzero entries of a dense partial-pivot factor, with its
    pivots, in the compressed form. {!lu_solve_into} on the result does
    the dense substitution's operations in the same order, minus the
    terms whose factor entry is exactly zero. Subtracting [±0] leaves a
    nonzero partial sum unchanged, so for a finite right-hand side
    every solution component equals {!Matrix.lu_solve_into}'s: bit for
    bit when it is nonzero, and under [Float.equal] when it is zero —
    the sign of an exact zero is the only possible difference. *)

val lu_solve_into : lu -> b:float array -> x:float array -> unit
(** Allocation-free solve; [b] is not modified, [b] and [x] may not
    alias. *)

val lu_solve : lu -> float array -> float array

val nnz : lu -> int
(** Stored nonzeros of [L] + [U] (fill-in included), for reporting. *)

val pivot_range : lu -> float * float
(** [(min, max)] absolute value over the U diagonal — the same
    conditioning proxy as {!Matrix.pivot_range}. *)

(** {1 Symbolic-factorisation reuse}

    MNA stamps change their {e values} every Newton pass but their
    {e structure} never changes for a fixed topology. [analyze] runs
    the Markowitz elimination once, retaining structural zeros so the
    recorded pivot order and fill pattern stay valid for any numeric
    values on the same structure; [refactor] then redoes only the
    numeric work along that fixed pattern — no pivot search, no
    hash tables — which is what makes per-step refactorisation cheap
    in the fast engine path. *)

type symbolic

val analyze : n:int -> triplet list -> symbolic
(** Compute pivot order and fill pattern from a representative stamped
    matrix. Zero-valued entries are kept as structural.
    @raise Singular when no admissible pivot exists
    @raise Invalid_argument on out-of-range indices. *)

val refactor : symbolic -> triplet list -> lu
(** Numeric refactorisation over the fixed pattern. The triplets must
    have the same structure (a subset of the analyzed one is fine).
    @raise Singular when a reused pivot has gone numerically stale
    (|pivot| < 1e-300) — callers should re-[analyze] and retry. *)
