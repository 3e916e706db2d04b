type t = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create ?(capacity = 1024) () =
  let capacity = max capacity 1 in
  { times = Array.make capacity 0.0; values = Array.make capacity 0.0; len = 0 }

let grow tr =
  let cap = Array.length tr.times in
  let times = Array.make (2 * cap) 0.0 and values = Array.make (2 * cap) 0.0 in
  Array.blit tr.times 0 times 0 tr.len;
  Array.blit tr.values 0 values 0 tr.len;
  tr.times <- times;
  tr.values <- values

let add tr ~time ~value =
  if tr.len = Array.length tr.times then grow tr;
  (* Not an assert: the check must survive release builds, or a
     non-monotonic sample silently corrupts every later interpolation. *)
  if tr.len > 0 && time < tr.times.(tr.len - 1) then
    invalid_arg "Trace.add: non-monotonic time";
  tr.times.(tr.len) <- time;
  tr.values.(tr.len) <- value;
  tr.len <- tr.len + 1

let length tr = tr.len

let reserve tr n =
  if Array.length tr.times < n then begin
    tr.times <- Array.make n 0.0;
    tr.values <- Array.make n 0.0
  end;
  tr.len <- 0

let buffers tr = (tr.times, tr.values)

let set_length tr n =
  if n < 0 || n > Array.length tr.times then
    invalid_arg "Trace.set_length: outside the storage";
  (* The same guard as [add], once over the written samples. *)
  let times = tr.times in
  for i = 1 to n - 1 do
    if times.(i) < times.(i - 1) then
      invalid_arg "Trace.set_length: non-monotonic time"
  done;
  tr.len <- n

let check_index tr i =
  if i < 0 || i >= tr.len then invalid_arg "Trace: index out of bounds"

let time tr i =
  check_index tr i;
  tr.times.(i)

let value tr i =
  check_index tr i;
  tr.values.(i)

let last_value tr =
  if tr.len = 0 then invalid_arg "Trace.last_value: empty trace";
  tr.values.(tr.len - 1)

(* Binary search for the rightmost sample with time <= t. *)
let find_left tr t =
  let rec loop lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if tr.times.(mid) <= t then loop mid hi else loop lo mid
  in
  loop 0 tr.len

let sample_at tr t =
  if tr.len = 0 then invalid_arg "Trace.sample_at: empty trace";
  if t <= tr.times.(0) then tr.values.(0)
  else if t >= tr.times.(tr.len - 1) then tr.values.(tr.len - 1)
  else
    let i = find_left tr t in
    let t0 = tr.times.(i) and t1 = tr.times.(i + 1) in
    let v0 = tr.values.(i) and v1 = tr.values.(i + 1) in
    if t1 = t0 then v1 else v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))

let values tr = Array.sub tr.values 0 tr.len
let times tr = Array.sub tr.times 0 tr.len

let resample tr ~t0 ~dt ~n =
  Array.init n (fun i -> sample_at tr (t0 +. (float_of_int i *. dt)))

let of_fun f ~t0 ~dt ~n =
  let tr = create ~capacity:n () in
  for i = 0 to n - 1 do
    let t = t0 +. (float_of_int i *. dt) in
    add tr ~time:t ~value:(f t)
  done;
  tr

