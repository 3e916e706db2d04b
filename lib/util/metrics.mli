(** Error metrics between waveforms.

    The paper reports the normalised root-mean-square error (NRMSE) of
    every abstracted model against the Verilog-AMS reference (Table I);
    these are the corresponding numeric routines. *)

(** [rmse a b] is the root-mean-square difference of two equal-length
    sample arrays.
    @raise Invalid_argument if lengths differ or arrays are empty. *)
val rmse : float array -> float array -> float

(** [nrmse ~reference measured] is [rmse] normalised by the value range
    (max - min) of [reference]. A constant reference (range 0) with a
    non-zero error yields [infinity]; identical arrays yield [0]. *)
val nrmse : reference:float array -> float array -> float

(** [nrmse_traces ~reference measured ~t0 ~dt ~n] resamples both traces
    on a common grid and computes the NRMSE. *)
val nrmse_traces :
  reference:Trace.t -> Trace.t -> t0:float -> dt:float -> n:int -> float

(** [ulp_distance a b] is the number of representable floats between
    [a] and [b] (0 when bit-identical, 1 for adjacent floats). Signed
    zeros are 0 apart; two NaNs are 0 apart regardless of payload; a
    NaN against a non-NaN is [Int64.max_int]. Used by the differential
    engine tests: "≤ 1 ulp" is the identical-output acceptance bar. *)
val ulp_distance : float -> float -> int64
