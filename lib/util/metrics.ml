let check_same_length a b =
  if Array.length a <> Array.length b then
    invalid_arg "Metrics: arrays of different lengths";
  if Array.length a = 0 then invalid_arg "Metrics: empty arrays"

let rmse a b =
  check_same_length a b;
  let n = Array.length a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let value_range a =
  let vmin = ref a.(0) and vmax = ref a.(0) in
  Array.iter
    (fun v ->
      if v < !vmin then vmin := v;
      if v > !vmax then vmax := v)
    a;
  !vmax -. !vmin

let nrmse ~reference measured =
  let e = rmse reference measured in
  if e = 0.0 then 0.0
  else
    let range = value_range reference in
    if range = 0.0 then infinity else e /. range

let nrmse_traces ~reference measured ~t0 ~dt ~n =
  let a = Trace.resample reference ~t0 ~dt ~n in
  let b = Trace.resample measured ~t0 ~dt ~n in
  nrmse ~reference:a b

let ulp_distance a b =
  (* Map the IEEE-754 bit pattern onto a monotone integer line: for
     non-negative floats the bits already order correctly; negative
     floats order in reverse, so reflect them below the positives. On
     that line adjacent representable floats differ by exactly 1. *)
  let ordered f =
    let bits = Int64.bits_of_float f in
    if Int64.compare bits 0L >= 0 then bits
    else Int64.sub Int64.min_int bits
  in
  let nan_a = Float.is_nan a and nan_b = Float.is_nan b in
  if nan_a || nan_b then if nan_a && nan_b then 0L else Int64.max_int
  else Int64.abs (Int64.sub (ordered a) (ordered b))
