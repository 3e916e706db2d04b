(* Order statistics, counter snapshots and the per-layer span ledger.

   Every timing is host time on the library's monotonic clock
   ([Obs.now_ns]). A layer's busy time is the self time of the spans it
   owns: a span's duration minus the part covered by its child spans.
   The benchmark wraps each public call it makes in a span of its own
   and switches the library's span recorder on for traced ops, so the
   layer self times of one op plus the time no span covers (the
   residual) add up to the op's wall time exactly. *)

module Obs = Amsvp_obs.Obs

let ms_of_ns ns = float_of_int ns *. 1e-6

(* Linearly interpolated quantile, [q] in [0, 1]; nan on no samples. *)
let quantile q (xs : float array) =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs

(* {1 Counters} *)

type counts = (string, int) Hashtbl.t

let add tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* Every registered counter, label sets summed per name. *)
let snapshot () : counts =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, _, v) -> add tbl name v) (Obs.counter_values ());
  tbl

let diff (before : counts) (after : counts) : counts =
  let d = Hashtbl.create 64 in
  Hashtbl.iter (fun k v -> let x = v - get before k in if x <> 0 then Hashtbl.replace d k x) after;
  d

(* {1 Spans} *)

(* The layer that owns a span: the module prefix of its name, with the
   library's short prefixes mapped to the module names the ledger
   reports ("sf.run" is signal-flow work, "flow.solve" the core flow,
   "wrap.run_de" and "de.run_until" the SystemC kernel). *)
let layer_of name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "sf" -> "signalflow"
  | "flow" -> "core"
  | "wrap" | "de" -> "sysc"
  | p -> p

type tally = {
  self_ns : (string, int) Hashtbl.t;  (** layer -> self time *)
  incl_ns : (string, int) Hashtbl.t;  (** span name -> summed duration *)
  covered_ns : int;  (** time inside any span *)
  first_start : (string, int) Hashtbl.t;  (** span name -> earliest start *)
}

let tally (spans : Obs.span list) =
  let a = Array.of_list spans in
  Array.sort
    (fun (x : Obs.span) (y : Obs.span) ->
      compare (x.start_ns, x.depth) (y.start_ns, y.depth))
    a;
  let child = Array.make (Array.length a) 0 in
  let stack = ref [] in
  let covered = ref 0 in
  Array.iteri
    (fun i (s : Obs.span) ->
      let rec pop () =
        match !stack with
        | j :: rest when a.(j).Obs.start_ns + a.(j).Obs.dur_ns <= s.start_ns ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ -> child.(j) <- child.(j) + s.dur_ns
      | [] -> covered := !covered + s.dur_ns);
      stack := i :: !stack)
    a;
  let self_ns = Hashtbl.create 8
  and incl_ns = Hashtbl.create 8
  and first_start = Hashtbl.create 8 in
  Array.iteri
    (fun i (s : Obs.span) ->
      add self_ns (layer_of s.name) (s.dur_ns - child.(i));
      add incl_ns s.name s.dur_ns;
      match Hashtbl.find_opt first_start s.name with
      | Some t when t <= s.start_ns -> ()
      | _ -> Hashtbl.replace first_start s.name s.start_ns)
    a;
  { self_ns; incl_ns; covered_ns = !covered; first_start }

(* Record a benchmark-side span around a call into a layer. *)
let span name f = Obs.with_span ~cat:"bench" name f
