(** Expansion of a {!Spec.t} into concrete scenario points.

    All points are materialised upfront in the calling process, with
    Monte Carlo draws taken from per-point substreams of the spec seed
    ({!Amsvp_util.Rng.derive}).  The expansion is therefore a pure
    function of the spec: identical specs give byte-identical points no
    matter how many worker processes later execute them, or in which
    order. *)

type point = {
  index : int;  (** 0-based position in the expansion *)
  label : string;  (** ["p0042"] or the corner name *)
  overrides : (string * float) list;
      (** ["device.param"] bindings, in axis order *)
}

val points : Spec.t -> point list
(** Grid/values axes combine by cartesian product (first axis slowest);
    each grid point is drawn [samples] times when the spec has Monte
    Carlo axes; corners follow as one point each.  Length equals
    {!Spec.point_count}. *)

