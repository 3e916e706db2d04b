type t = float -> float

let square ~period ~low ~high =
  if period <= 0.0 then invalid_arg "Stimulus.square: period must be positive";
  fun t ->
    let phase = Float.rem t period in
    let phase = if phase < 0.0 then phase +. period else phase in
    if phase < period /. 2.0 then high else low

let sine ~freq ~amplitude =
  let w = 2.0 *. Float.pi *. freq in
  fun t -> amplitude *. sin (w *. t)

let step ~at ~low ~high = fun t -> if t < at then low else high

let pwl points =
  match points with
  | [] -> invalid_arg "Stimulus.pwl: empty point list"
  | (t0, _) :: rest ->
      let rec check prev = function
        | [] -> ()
        | (t, _) :: tl ->
            if t < prev then invalid_arg "Stimulus.pwl: unsorted points";
            check t tl
      in
      check t0 rest;
      let arr = Array.of_list points in
      let n = Array.length arr in
      fun t ->
        if t <= fst arr.(0) then snd arr.(0)
        else if t >= fst arr.(n - 1) then snd arr.(n - 1)
        else begin
          (* rightmost segment start with time <= t *)
          let rec loop lo hi =
            if hi - lo <= 1 then lo
            else
              let mid = (lo + hi) / 2 in
              if fst arr.(mid) <= t then loop mid hi else loop lo mid
          in
          let i = loop 0 n in
          let ta, va = arr.(i) and tb, vb = arr.(i + 1) in
          if tb = ta then vb else va +. ((vb -. va) *. (t -. ta) /. (tb -. ta))
        end

let constant v = fun _ -> v

let sample f ~dt ~n = Array.init n (fun i -> f (float_of_int i *. dt))
