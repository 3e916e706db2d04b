(* Span recorder + metrics registry + sinks. See obs.mli for the cost
   model: spans are gated by [on], metrics are always live.

   The process runs one domain; parallel work runs in forked worker
   processes, each with its own copy of this state, which ship what
   they record back to the parent (see {!Amsvp_sweep.Pool}). So every
   cell here is a plain mutable field. *)

module Json = Amsvp_util.Json

type span = {
  name : string;
  cat : string;
  start_ns : int;
  dur_ns : int;
  depth : int;
  proc : string;  (* "" = recorded in this process; else the origin tag *)
  args : (string * string) list;
}

(* ---- enable flag ---- *)

let on = ref false
let enabled () = !on
let enable () = on := true
let disable () = on := false
let now_ns = Clock.now_ns

(* ---- span storage: a growable buffer of completed spans ---- *)

let dummy_span =
  { name = ""; cat = ""; start_ns = 0; dur_ns = 0; depth = 0; proc = "";
    args = [] }

let buf = ref (Array.make 1024 dummy_span)
let len = ref 0

(* Nesting depth of the spans open right now. *)
let depth = ref 0

let push s =
  if !len = Array.length !buf then begin
    let bigger = Array.make (2 * !len) dummy_span in
    Array.blit !buf 0 bigger 0 !len;
    buf := bigger
  end;
  !buf.(!len) <- s;
  incr len

let span_count () = !len
let spans () = Array.to_list (Array.sub !buf 0 !len)

let spans_from n =
  if n >= !len then [] else Array.to_list (Array.sub !buf n (!len - n))

let ingest_spans ~proc spans =
  if !on then
    List.iter
      (fun s -> push (if s.proc = "" then { s with proc } else s))
      spans

let span_snapshot () = Array.sub !buf 0 !len

(* Close the innermost open span, opened at [t0]. *)
let close ~cat ~args name t0 =
  let t1 = now_ns () in
  decr depth;
  push
    { name; cat; start_ns = t0; dur_ns = t1 - t0; depth = !depth; proc = "";
      args };
  t1

let with_span ?(cat = "") ?(args = []) name f =
  if not !on then f ()
  else begin
    incr depth;
    let t0 = now_ns () in
    match f () with
    | y ->
        ignore (close ~cat ~args name t0);
        y
    | exception e ->
        ignore (close ~cat ~args name t0);
        raise e
  end

let timed ?(cat = "") name f =
  let recording = !on in
  if recording then incr depth;
  let t0 = now_ns () in
  match f () with
  | y ->
      let t1 = if recording then close ~cat ~args:[] name t0 else now_ns () in
      (y, float_of_int (t1 - t0) *. 1e-9)
  | exception e ->
      if recording then ignore (close ~cat ~args:[] name t0);
      raise e

let instant ?(cat = "") ?(args = []) name =
  if !on then
    push
      { name; cat; start_ns = now_ns (); dur_ns = 0; depth = !depth; proc = "";
        args }

(* ---- metrics registry ---- *)

type counter = {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;  (* ascending upper bounds; +Inf is implicit *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  h_sum : sum_cell;
  mutable h_count : int;
}

(* A float-only record stores its field unboxed: as a field of the
   mixed [histogram] record, every [observe] would box the new sum. *)
and sum_cell = { mutable sum : float }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_order : string list ref = ref [] (* reverse registration order *)

let register name m =
  Hashtbl.replace registry name m;
  reg_order := name :: !reg_order

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Obs: metric %s is already registered with another kind"
       name)

(* Exposition-format escaping. Label values escape backslash, double
   quote and newline; HELP text escapes backslash and newline (a raw
   newline would terminate the comment line mid-text and corrupt the
   scrape). *)
let prom_escape ~quote s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '"' when quote -> Buffer.add_string b "\\\""
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_escape_help = prom_escape ~quote:false
let prom_escape_label = prom_escape ~quote:true

(* {k="v",...} — empty for an unlabelled series. *)
let label_suffix = function
  | [] -> ""
  | labels ->
      let b = Buffer.create 32 in
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "%s=\"%s\"" k (prom_escape_label v))
        labels;
      Buffer.add_char b '}';
      Buffer.contents b

(* Find-or-create: a second [make] of a series returns the first
   instance. Labelled series of one metric name are distinct instances,
   keyed by name plus rendered labels. *)
let series_key name labels = name ^ label_suffix labels

let make_metric name ~fresh ~recover =
  match Hashtbl.find_opt registry name with
  | Some m -> ( match recover m with Some x -> x | None -> kind_clash name)
  | None ->
      let x, m = fresh () in
      register name m;
      x

module Counter = struct
  type t = counter

  let make ?(help = "") ?(labels = []) name =
    make_metric (series_key name labels)
      ~fresh:(fun () ->
        let c =
          { c_name = name; c_help = help; c_labels = labels;
            c_value = 0 }
        in
        (c, Counter c))
      ~recover:(function Counter c -> Some c | _ -> None)

  let incr c = c.c_value <- c.c_value + 1

  let add c n =
    if n < 0 then invalid_arg "Obs.Counter.add: negative increment";
    c.c_value <- c.c_value + n

  let value c = c.c_value
  let name c = c.c_name
end

module Gauge = struct
  type t = gauge

  let make ?(help = "") ?(labels = []) name =
    make_metric (series_key name labels)
      ~fresh:(fun () ->
        let g =
          { g_name = name; g_help = help; g_labels = labels;
            g_value = 0.0 }
        in
        (g, Gauge g))
      ~recover:(function Gauge g -> Some g | _ -> None)

  let set g v = g.g_value <- v
  let value g = g.g_value
end

module Histogram = struct
  type t = histogram

  let default_buckets =
    [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 1e5; 1e6 |]

  let make ?(help = "") ?(buckets = default_buckets) name =
    if Array.length buckets = 0 then
      invalid_arg "Obs.Histogram.make: empty bucket list";
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Obs.Histogram.make: buckets must be ascending")
      buckets;
    make_metric name
      ~fresh:(fun () ->
        let h =
          {
            h_name = name;
            h_help = help;
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            h_sum = { sum = 0.0 };
            h_count = 0;
          }
        in
        (h, Histogram h))
      ~recover:(function Histogram h -> Some h | _ -> None)

  let[@inline] bucket h v =
    let n = Array.length h.bounds in
    let i = ref 0 in
    (* [v <= b] is false for NaN against every bound, so a NaN walks
       past all of them into the overflow bucket. *)
    while !i < n && not (v <= h.bounds.(!i)) do
      incr i
    done;
    !i

  let observe h v =
    let i = bucket h v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_sum.sum <- h.h_sum.sum +. v;
    h.h_count <- h.h_count + 1

  let count h = h.h_count
  let sum h = h.h_sum.sum

  let bucket_counts h =
    let acc = ref 0 in
    let cumulative =
      Array.to_list
        (Array.mapi
           (fun i b ->
             acc := !acc + h.counts.(i);
             (b, !acc))
           h.bounds)
    in
    cumulative @ [ (infinity, h.h_count) ]
end

(* Every registered counter as (name, labels, value) — the worker-side
   snapshot/delta basis for shipping counter increments to the daemon. *)
let counter_values () =
  List.rev
    (List.filter_map
       (fun key ->
         match Hashtbl.find_opt registry key with
         | Some (Counter c) -> Some (c.c_name, c.c_labels, c.c_value)
         | _ -> None)
       !reg_order)

let reset () =
  len := 0;
  depth := 0;
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.h_sum.sum <- 0.0;
          h.h_count <- 0)
    registry

(* ---- span aggregation (the summary and prometheus sinks, bench) ---- *)

type span_total = { calls : int; total_ns : int; self_ns : int }

(* Self time is a span's duration minus the total duration of its
   direct children, computed over the completion-ordered buffer with a
   per-(process, depth) pending table: a child always completes before
   its parent, and depth only nests within one process. *)
let span_totals ~lo ~hi =
  let pending : (string * int, int) Hashtbl.t = Hashtbl.create 32 in
  let get k = Option.value ~default:0 (Hashtbl.find_opt pending k) in
  let tbl : (string, span_total) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  for j = max 0 lo to min hi !len - 1 do
    let s = !buf.(j) in
    let child = (s.proc, s.depth + 1) and mine = (s.proc, s.depth) in
    let self = s.dur_ns - get child in
    Hashtbl.remove pending child;
    Hashtbl.replace pending mine (get mine + s.dur_ns);
    (* An instant marks a moment: it has no time to total. *)
    if s.dur_ns > 0 then
      match Hashtbl.find_opt tbl s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name
            { calls = 1; total_ns = s.dur_ns; self_ns = self }
      | Some t ->
          Hashtbl.replace tbl s.name
            {
              calls = t.calls + 1;
              total_ns = t.total_ns + s.dur_ns;
              self_ns = t.self_ns + self;
            }
  done;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* ---- sinks ---- *)

let chrome_trace () =
  let snapshot = span_snapshot () in
  (* Each span-recording process gets its own trace pid so daemon and
     worker spans land on separate tracks: pid 1 is this process
     ("amsvp"), ingested origins get pid 2, 3, ... in sorted order. *)
  let origins =
    Array.fold_left
      (fun acc s -> if s.proc = "" || List.mem s.proc acc then acc
                    else s.proc :: acc)
      [] snapshot
    |> List.sort compare
  in
  let pid_of p =
    if p = "" then 1
    else
      let rec find i = function
        | [] -> 1
        | o :: tl -> if String.equal o p then i else find (i + 1) tl
      in
      find 2 origins
  in
  let open Json in
  let int i = Num (float_of_int i) in
  let us ns = Num (float_of_int ns /. 1e3) in
  let process pid name =
    Obj
      [ ("name", Str "process_name"); ("ph", Str "M"); ("pid", int pid);
        ("tid", int 1); ("args", Obj [ ("name", Str name) ]) ]
  in
  let event s =
    let cat = if s.cat = "" then "amsvp" else s.cat in
    Obj
      ([ ("name", Str s.name); ("cat", Str cat) ]
      @ (if s.dur_ns = 0 then
           [ ("ph", Str "i"); ("s", Str "t"); ("ts", us s.start_ns) ]
         else [ ("ph", Str "X"); ("ts", us s.start_ns); ("dur", us s.dur_ns) ])
      @ [ ("pid", int (pid_of s.proc)); ("tid", int 1) ]
      @
      if s.args = [] then []
      else [ ("args", Obj (List.map (fun (k, v) -> (k, Str v)) s.args)) ])
  in
  let processes =
    process 1 "amsvp" :: List.mapi (fun i o -> process (i + 2) o) origins
  in
  print
    (Obj
       [ ("displayTimeUnit", Str "ms");
         ( "traceEvents",
           Arr (processes @ Array.to_list (Array.map event snapshot)) ) ])

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let prom_name s =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    s

let registered_in_order () =
  List.rev_map (fun name -> (name, Hashtbl.find_opt registry name)) !reg_order

let prometheus () =
  let b = Buffer.create 4096 in
  (* HELP/TYPE comments belong to the metric name, not the series: the
     first series of a labelled family writes them, later ones only add
     their sample lines. *)
  let seen_headers : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let header name help kind =
    if not (Hashtbl.mem seen_headers name) then begin
      Hashtbl.replace seen_headers name ();
      if help <> "" then
        Printf.bprintf b "# HELP %s %s\n" name (prom_escape_help help);
      Printf.bprintf b "# TYPE %s %s\n" name kind
    end
  in
  List.iter
    (fun (_, m) ->
      match m with
      | None -> ()
      | Some (Counter c) ->
          let n = prom_name c.c_name in
          header n c.c_help "counter";
          Printf.bprintf b "%s%s %d\n" n
            (label_suffix c.c_labels)
            (c.c_value)
      | Some (Gauge g) ->
          let n = prom_name g.g_name in
          header n g.g_help "gauge";
          Printf.bprintf b "%s%s %.9g\n" n
            (label_suffix g.g_labels)
            (g.g_value)
      | Some (Histogram h) ->
          let n = prom_name h.h_name in
          header n h.h_help "histogram";
          List.iter
            (fun (le, count) ->
              let le_s =
                if le = infinity then "+Inf" else Printf.sprintf "%.9g" le
              in
              Printf.bprintf b "%s_bucket%s %d\n" n
                (label_suffix [ ("le", le_s) ])
                count)
            (Histogram.bucket_counts h);
          Printf.bprintf b "%s_sum %.9g\n" n h.h_sum.sum;
          Printf.bprintf b "%s_count %d\n" n h.h_count)
    (registered_in_order ());
  (* Per-span-name aggregates, so flow-stage and kernel spans show up in
     the same scrape as the counters. *)
  List.iter
    (fun (name, t) ->
      let n = "amsvp_span_" ^ prom_name name in
      header (n ^ "_calls_total") ("completions of span " ^ name) "counter";
      Printf.bprintf b "%s_calls_total %d\n" n t.calls;
      header (n ^ "_seconds_total") ("total wall time in span " ^ name) "counter";
      Printf.bprintf b "%s_seconds_total %.9g\n" n
        (float_of_int t.total_ns *. 1e-9))
    (span_totals ~lo:0 ~hi:!len);
  Buffer.contents b

let summary () =
  let b = Buffer.create 2048 in
  let aggr = span_totals ~lo:0 ~hi:!len in
  if aggr <> [] then begin
    Buffer.add_string b "spans (name, calls, total, mean):\n";
    List.iter
      (fun (name, t) ->
        Printf.bprintf b "  %-40s %8d %10.3f ms %10.1f us\n" name t.calls
          (float_of_int t.total_ns /. 1e6)
          (float_of_int t.total_ns /. 1e3 /. float_of_int t.calls))
      aggr
  end;
  let counters = ref [] and gauges = ref [] and histos = ref [] in
  List.iter
    (fun (_, m) ->
      match m with
      | Some (Counter c) -> counters := c :: !counters
      | Some (Gauge g) -> gauges := g :: !gauges
      | Some (Histogram h) -> histos := h :: !histos
      | None -> ())
    (registered_in_order ());
  if !counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (c : counter) ->
        Printf.bprintf b "  %-40s %12d\n"
          (c.c_name ^ label_suffix c.c_labels)
          (c.c_value))
      (List.rev !counters)
  end;
  if !gauges <> [] then begin
    Buffer.add_string b "gauges:\n";
    List.iter
      (fun (g : gauge) ->
        Printf.bprintf b "  %-40s %12.6g\n"
          (g.g_name ^ label_suffix g.g_labels)
          (g.g_value))
      (List.rev !gauges)
  end;
  if !histos <> [] then begin
    Buffer.add_string b "histograms:\n";
    List.iter
      (fun (h : histogram) ->
        let count = h.h_count and sum = h.h_sum.sum in
        Printf.bprintf b "  %-40s count %d sum %.6g mean %.6g\n"
          h.h_name
          count
          sum
          (if count = 0 then 0.0 else sum /. float_of_int count))
      (List.rev !histos)
  end;
  Buffer.contents b

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc
