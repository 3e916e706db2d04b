module Trace = Amsvp_util.Trace
module Vcd = Amsvp_util.Vcd

module Tap = struct
  type t = {
    name : string;
    var : Expr.var;
    every : int;
    times : float array;
    vals : float array;
    mutable head : int;  (* next write position *)
    mutable filled : int;  (* retained samples, <= capacity *)
    mutable seen : int;  (* samples offered *)
  }

  let make ~name ~var ~capacity ~every =
    {
      name;
      var;
      every;
      times = Array.make capacity 0.0;
      vals = Array.make capacity 0.0;
      head = 0;
      filled = 0;
      seen = 0;
    }

  let name t = t.name
  let var t = t.var
  let seen t = t.seen
  let count t = t.filled

  let offer t ~time v =
    if t.seen mod t.every = 0 then begin
      t.times.(t.head) <- time;
      t.vals.(t.head) <- v;
      t.head <- (t.head + 1) mod Array.length t.times;
      if t.filled < Array.length t.times then t.filled <- t.filled + 1
    end;
    t.seen <- t.seen + 1

  (* Oldest retained sample: [head] once wrapped, index 0 before. *)
  let nth t i =
    let cap = Array.length t.times in
    let first = if t.filled < cap then 0 else t.head in
    let j = (first + i) mod cap in
    (t.times.(j), t.vals.(j))

  let times t = Array.init t.filled (fun i -> fst (nth t i))
  let values t = Array.init t.filled (fun i -> snd (nth t i))

  let to_trace t =
    let trace = Trace.create ~capacity:(max 1 t.filled) () in
    for i = 0 to t.filled - 1 do
      let time, value = nth t i in
      Trace.add trace ~time ~value
    done;
    trace
end

type t = {
  capacity : int;
  every : int;
  mutable taps : Tap.t list;  (* reverse attachment order *)
  mutable mons : (Expr.var * Health.t) list;  (* reverse attachment order *)
}

let create ?(capacity = 65536) ?(every = 1) () =
  if capacity < 1 then invalid_arg "Probe.create: capacity must be >= 1";
  if every < 1 then invalid_arg "Probe.create: every must be >= 1";
  { capacity; every; taps = []; mons = [] }

let tap set ?(every = set.every) var =
  let name = Expr.var_name var in
  if every < 1 then invalid_arg "Probe.tap: every must be >= 1";
  if List.exists (fun t -> Tap.name t = name) set.taps then
    invalid_arg ("Probe.tap: duplicate tap name " ^ name);
  let t = Tap.make ~name ~var ~capacity:set.capacity ~every in
  set.taps <- t :: set.taps;
  t

let watch set ?config var =
  let m = Health.create ?config (Expr.var_name var) in
  set.mons <- (var, m) :: set.mons;
  m

let taps set = List.rev set.taps
let vars set = List.map Tap.var (taps set) @ List.rev_map fst set.mons

let sample set ~time read =
  List.iter (fun t -> Tap.offer t ~time (read (Tap.var t))) set.taps;
  List.iter (fun (v, m) -> Health.observe m ~time (read v)) set.mons

let observer set time read = sample set ~time read
let traces set = List.map (fun t -> (Tap.name t, Tap.to_trace t)) (taps set)

let to_vcd set =
  if set.taps = [] then invalid_arg "Probe.to_vcd: no taps";
  Vcd.to_string (traces set)

let write_vcd set path =
  let oc = open_out path in
  output_string oc (to_vcd set);
  close_out oc

let to_csv set =
  let b = Buffer.create 4096 in
  Buffer.add_string b "signal,time,value\n";
  List.iter
    (fun t ->
      let name = Tap.name t in
      for i = 0 to Tap.count t - 1 do
        let time, value = Tap.nth t i in
        Printf.bprintf b "%s,%.9g,%.17g\n" name time value
      done)
    (taps set);
  Buffer.contents b

let write_csv set path =
  let oc = open_out path in
  output_string oc (to_csv set);
  close_out oc
