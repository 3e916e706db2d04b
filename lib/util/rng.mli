(** Deterministic seeded pseudo-random numbers (splitmix64).

    The sweep engine draws Monte Carlo samples from independent
    substreams — one per scenario point — so results are reproducible
    for a given seed regardless of how points are scheduled across
    domains, and so adding a point never perturbs the draws of the
    others. The generator is self-contained (no dependency on the
    global [Random] state, which is per-domain and order-sensitive). *)

type t
(** A mutable generator. Not thread-safe: derive one per domain or per
    work item instead of sharing. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds
    yield equal streams. *)

val derive : int -> stream:int -> t
(** [derive seed ~stream] is an independent substream: generators
    derived from the same seed with different [stream] indices produce
    decorrelated sequences, and the construction is pure — calling it
    twice yields identical generators. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].
    @raise Invalid_argument if [lo > hi]. *)

val normal : t -> mean:float -> sigma:float -> float
(** Gaussian draw (Box–Muller over two uniforms; no rejection loop, so
    every draw consumes exactly two generator steps). *)

val int : t -> bound:int -> int
(** Uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
