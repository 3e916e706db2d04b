module Json = Amsvp_util.Json

type span_profile = {
  sp_section : string;
  sp_name : string;
  sp_calls : int;
  sp_total_s : float;
  sp_self_s : float;
}

type convergence = {
  cv_steps : int;
  cv_residual_hist : (float * int) list;
  cv_converged_hist : (int * int) list;
  cv_wasted : int;
  cv_total_iters : int;
  cv_max_residual : float;
  cv_max_stress : float;
  cv_singular : int;
  cv_conditioning : int;
}

type cache = {
  ca_points : int;
  ca_hits : int;
  ca_misses : int;
  ca_wall_mean_s : float;
  ca_unhealthy : int;
}

type health = {
  he_warn : int;
  he_error : int;
  he_kinds : (string * int) list;
}

type traffic = {
  tf_runs : int;
  tf_ticks : int;
  tf_reads : int;
  tf_writes : int;
  tf_flops : int;
}

type origin_row = {
  og_origin : string;
  og_events : int;
  og_points : int;
}

type t = {
  r_journal_events : int;
  r_journal_dropped : int;
  r_profile : span_profile list;
  r_convergence : convergence option;
  r_cache : cache option;
  r_health : health option;
  r_traffic : traffic option;
  r_origins : origin_row list;
}

(* ---- journal helpers ---- *)

let str k j = Option.value ~default:"" (Json.mem_string k j)
let num k j = Option.value ~default:0.0 (Json.mem_float k j)
let ev_cat = str "cat"
let ev_name = str "name"
let ev_sev e = Option.value ~default:"info" (Json.mem_string "sev" e)
let ev_data e = Option.value ~default:(Json.Obj []) (Json.member "data" e)

let data_num k e = num k (ev_data e)
let data_int k e = int_of_float (data_num k e)
let data_bool k e = Json.mem_bool k (ev_data e)
let sum f events = List.fold_left (fun n e -> n + f e) 0 events
let count p events = List.length (List.filter p events)
let named cat name e = ev_cat e = cat && ev_name e = name

(* The [n] of [(key, n)] pairs summed per key, sorted by key. *)
let tally pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, n) ->
      Hashtbl.replace tbl k
        (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    pairs;
  List.sort Stdlib.compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

(* The counts [runs] carry in fields [prefix ^ key], summed per key as
   [parse] reads it; a field it cannot read is skipped. *)
let keyed ~prefix parse runs =
  let n = String.length prefix in
  let field (k, v) =
    if not (String.starts_with ~prefix k) then None
    else
      let key = String.sub k n (String.length k - n) in
      match (parse key, Json.to_float v) with
      | Some key, Some c -> Some (key, int_of_float c)
      | _ -> None
  in
  tally
    (List.concat_map
       (fun e ->
         match ev_data e with
         | Json.Obj fields -> List.filter_map field fields
         | _ -> [])
       runs)

(* From the [newton.run] summaries alone: the solver adds up each run's
   steps into flat per-decade and per-pass counts. *)
let build_convergence events =
  let runs = List.filter (named "mna" "newton.run") events in
  let singular = count (named "mna" "singular_pivot") events in
  if runs = [] && singular = 0 then None
  else
    let largest k =
      List.fold_left
        (fun m e ->
          let v = data_num k e in
          if v > m then v else m)
        0.0 runs
    in
    Some
      {
        cv_steps = sum (data_int "steps") runs;
        cv_residual_hist =
          keyed ~prefix:"residual_le_" float_of_string_opt runs;
        cv_converged_hist =
          keyed ~prefix:"converged_at_" int_of_string_opt runs;
        cv_wasted = sum (data_int "wasted_iters") runs;
        cv_total_iters = sum (data_int "total_iters") runs;
        cv_max_residual = largest "max_residual";
        cv_max_stress = largest "dt_stress";
        cv_singular = singular;
        cv_conditioning = count (named "mna" "conditioning") events;
      }

let build_cache events =
  let pts = List.filter (named "sweep" "point") events in
  if pts = [] then None
  else
    let n = List.length pts in
    let hits = count (fun e -> data_bool "cached" e = Some true) pts in
    let wall = List.fold_left (fun w e -> w +. data_num "wall_s" e) 0.0 pts in
    Some
      {
        ca_points = n;
        ca_hits = hits;
        ca_misses = n - hits;
        ca_wall_mean_s = wall /. float_of_int n;
        ca_unhealthy = count (fun e -> data_bool "healthy" e = Some false) pts;
      }

let build_health events =
  let flagged =
    List.filter (fun e -> ev_sev e = "warn" || ev_sev e = "error") events
  in
  if flagged = [] then None
  else
    let error = count (fun e -> ev_sev e = "error") flagged in
    Some
      {
        he_warn = List.length flagged - error;
        he_error = error;
        he_kinds =
          tally (List.map (fun e -> (ev_cat e ^ "/" ^ ev_name e, 1)) flagged);
      }

let build_traffic events =
  let runs = List.filter (named "sf" "run") events in
  if runs = [] then None
  else
    let per k e = data_int "ticks" e * data_int k e in
    Some
      {
        tf_runs = List.length runs;
        tf_ticks = sum (data_int "ticks") runs;
        tf_reads = sum (per "reads_per_tick") runs;
        tf_writes = sum (per "writes_per_tick") runs;
        tf_flops = sum (per "flops_per_tick") runs;
      }

(* Per-process breakdown of a merged journal. A single-process journal
   (no event carries an origin tag) yields [] so old reports are
   unchanged. *)
let build_origins events =
  let ev_origin e = Option.value ~default:"" (Json.mem_string "origin" e) in
  if List.for_all (fun e -> ev_origin e = "") events then []
  else
    let per_origin evs =
      tally
        (List.map
           (fun e -> ((match ev_origin e with "" -> "main" | o -> o), 1))
           evs)
    in
    let points = per_origin (List.filter (named "sweep" "point") events) in
    List.map
      (fun (o, n) ->
        {
          og_origin = o;
          og_events = n;
          og_points = Option.value ~default:0 (List.assoc_opt o points);
        })
      (per_origin events)

let build_profile ~top bench =
  match bench with
  | None -> []
  | Some doc ->
      let spans =
        List.concat_map
          (fun sec ->
            List.map
              (fun sp ->
                {
                  sp_section = str "section" sec;
                  sp_name = str "name" sp;
                  sp_calls = int_of_float (num "calls" sp);
                  sp_total_s = num "total_s" sp;
                  sp_self_s = num "self_s" sp;
                })
              (Json.mem_list "spans" sec))
          (Json.mem_list "sections" doc)
      in
      let sorted =
        List.sort (fun a b -> Stdlib.compare b.sp_self_s a.sp_self_s) spans
      in
      List.filteri (fun i _ -> i < top) sorted

let build ?(top = 15) ?(journal = []) ?bench () =
  let trailers, journal =
    List.partition (fun e -> ev_name e = "journal.dropped") journal
  in
  {
    r_journal_events = List.length journal;
    r_journal_dropped = sum (data_int "count") trailers;
    r_profile = build_profile ~top bench;
    r_convergence = build_convergence journal;
    r_cache = build_cache journal;
    r_health = build_health journal;
    r_traffic = build_traffic journal;
    r_origins = build_origins journal;
  }

(* ---- text rendering ---- *)

let bar n max_n width =
  if max_n <= 0 then ""
  else String.make (max 0 (n * width / max_n)) '#'

let bound_label b =
  if b = infinity then ">1e3" else Printf.sprintf "<=%.0e" b

let to_text r =
  let b = Buffer.create 2048 in
  let line () = Buffer.add_string b (String.make 72 '-' ^ "\n") in
  Buffer.add_string b "amsvp run report\n";
  line ();
  if r.r_journal_events > 0 then
    Printf.bprintf b "journal: %d event(s)\n" r.r_journal_events;
  if r.r_journal_dropped > 0 then
    Printf.bprintf b "journal: %d event(s) DROPPED when a ring wrapped\n"
      r.r_journal_dropped;
  if r.r_profile <> [] then begin
    Printf.bprintf b "\nSELF-TIME PROFILE (top %d spans by self time)\n"
      (List.length r.r_profile);
    Printf.bprintf b "  %-10s %-28s %8s %12s %12s\n" "section" "span" "calls"
      "total(s)" "self(s)";
    List.iter
      (fun sp ->
        Printf.bprintf b "  %-10s %-28s %8d %12.4f %12.4f\n" sp.sp_section
          sp.sp_name sp.sp_calls sp.sp_total_s sp.sp_self_s)
      r.r_profile
  end;
  (match r.r_convergence with
  | None -> ()
  | Some cv ->
      Printf.bprintf b "\nCONVERGENCE (%d reporting step(s))\n" cv.cv_steps;
      let max_n =
        List.fold_left (fun m (_, n) -> max m n) 0 cv.cv_residual_hist
      in
      List.iter
        (fun (bound, n) ->
          if n > 0 || bound <= 1.0 then
            Printf.bprintf b "  residual %-8s %8d %s\n" (bound_label bound) n
              (bar n max_n 40))
        cv.cv_residual_hist;
      List.iter
        (fun (k, n) ->
          if k = 0 then
            Printf.bprintf b "  never converged within budget: %d step(s)\n" n
          else Printf.bprintf b "  converged at iteration %d: %d step(s)\n" k n)
        cv.cv_converged_hist;
      if cv.cv_total_iters > 0 then
        Printf.bprintf b
          "  wasted Newton passes: %d of %d (%.1f%%) — budget an early-exit \
           would save\n"
          cv.cv_wasted cv.cv_total_iters
          (100.0 *. float_of_int cv.cv_wasted /. float_of_int cv.cv_total_iters)
      else if cv.cv_wasted > 0 then
        Printf.bprintf b "  wasted Newton passes: %d\n" cv.cv_wasted;
      Printf.bprintf b "  max residual: %.3e   max dt-stress: %.3f\n"
        cv.cv_max_residual cv.cv_max_stress;
      if cv.cv_singular > 0 then
        Printf.bprintf b "  SINGULAR PIVOTS: %d\n" cv.cv_singular;
      if cv.cv_conditioning > 0 then
        Printf.bprintf b "  conditioning warnings: %d\n" cv.cv_conditioning);
  (match r.r_cache with
  | None -> ()
  | Some ca ->
      Printf.bprintf b "\nSWEEP CACHE\n";
      Printf.bprintf b
        "  %d point(s): %d replayed / %d full (%.1f%% hit rate), mean %.4f \
         s/point\n"
        ca.ca_points ca.ca_hits ca.ca_misses
        (100.0 *. float_of_int ca.ca_hits /. float_of_int (max 1 ca.ca_points))
        ca.ca_wall_mean_s;
      if ca.ca_unhealthy > 0 then
        Printf.bprintf b "  UNHEALTHY points: %d\n" ca.ca_unhealthy);
  (match r.r_traffic with
  | None -> ()
  | Some tf ->
      Printf.bprintf b "\nSIGNAL-FLOW TRAFFIC\n";
      Printf.bprintf b
        "  %d run(s), %d ticks: %d reg reads, %d reg writes, %d flops\n"
        tf.tf_runs tf.tf_ticks tf.tf_reads tf.tf_writes tf.tf_flops);
  if r.r_origins <> [] then begin
    Printf.bprintf b "\nPER-ORIGIN (%d process(es))\n"
      (List.length r.r_origins);
    Printf.bprintf b "  %-20s %10s %10s\n" "origin" "events" "points";
    List.iter
      (fun og ->
        Printf.bprintf b "  %-20s %10d %10d\n" og.og_origin og.og_events
          og.og_points)
      r.r_origins
  end;
  (match r.r_health with
  | None -> ()
  | Some he ->
      Printf.bprintf b "\nHEALTH ROLLUP\n";
      Printf.bprintf b "  %d warning(s), %d error(s)\n" he.he_warn he.he_error;
      List.iter
        (fun (k, n) -> Printf.bprintf b "  %-32s %d\n" k n)
        he.he_kinds);
  if
    r.r_profile = [] && r.r_convergence = None && r.r_cache = None
    && r.r_traffic = None && r.r_health = None && r.r_origins = []
  then Buffer.add_string b "nothing to report (empty journal, no bench)\n";
  Buffer.contents b

(* ---- JSON rendering ---- *)

let to_json r =
  let open Json in
  let int i = Num (float_of_int i) in
  let opt field f = function Some x -> [ (field, Obj (f x)) ] | None -> [] in
  let list field f = function
    | [] -> []
    | l -> [ (field, Arr (List.map (fun x -> Obj (f x)) l)) ]
  in
  let bucket k key n = Obj [ (k, key); ("count", int n) ] in
  print
    (Obj
       ([ ("journal_events", int r.r_journal_events);
          ("journal_dropped", int r.r_journal_dropped) ]
       @ list "profile"
           (fun sp ->
             [ ("section", Str sp.sp_section); ("name", Str sp.sp_name);
               ("calls", int sp.sp_calls); ("total_s", Num sp.sp_total_s);
               ("self_s", Num sp.sp_self_s) ])
           r.r_profile
       @ opt "convergence"
           (fun cv ->
             [ ("steps", int cv.cv_steps); ("wasted_iters", int cv.cv_wasted);
               ("total_iters", int cv.cv_total_iters);
               ("max_residual", Num cv.cv_max_residual);
               ("max_stress", Num cv.cv_max_stress);
               ("singular_pivots", int cv.cv_singular);
               ("conditioning_warnings", int cv.cv_conditioning);
               ( "residual_hist",
                 Arr (List.map (fun (le, n) -> bucket "le" (Num le) n)
                        cv.cv_residual_hist) );
               ( "converged_at",
                 Arr (List.map (fun (k, n) -> bucket "iteration" (int k) n)
                        cv.cv_converged_hist) ) ])
           r.r_convergence
       @ opt "cache"
           (fun ca ->
             [ ("points", int ca.ca_points); ("hits", int ca.ca_hits);
               ("misses", int ca.ca_misses);
               ("wall_mean_s", Num ca.ca_wall_mean_s);
               ("unhealthy", int ca.ca_unhealthy) ])
           r.r_cache
       @ opt "traffic"
           (fun tf ->
             [ ("runs", int tf.tf_runs); ("ticks", int tf.tf_ticks);
               ("reads", int tf.tf_reads); ("writes", int tf.tf_writes);
               ("flops", int tf.tf_flops) ])
           r.r_traffic
       @ list "origins"
           (fun og ->
             [ ("origin", Str og.og_origin); ("events", int og.og_events);
               ("points", int og.og_points) ])
           r.r_origins
       @ opt "health"
           (fun he ->
             [ ("warnings", int he.he_warn); ("errors", int he.he_error);
               ("kinds", Obj (List.map (fun (k, n) -> (k, int n)) he.he_kinds));
             ])
           r.r_health))

(* ---- perf comparison ---- *)

type regression = {
  g_where : string;
  g_metric : string;
  g_baseline : float;
  g_current : float;
  g_ratio : float;
}

(* Below this baseline value a relative comparison measures scheduler
   noise, not the code under test. *)
let min_comparable_s = 1e-3

let row_key r =
  Printf.sprintf "rows/%s/%s/%s/%s"
    (Option.value ~default:"" (Json.mem_string "table" r))
    (Option.value ~default:"" (Json.mem_string "comp" r))
    (Option.value ~default:"" (Json.mem_string "target" r))
    (Option.value ~default:"" (Json.mem_string "method" r))

(* (key, metric) -> value for every comparable number of a bench
   document. *)
let metrics_of doc =
  let acc = ref [] in
  List.iter
    (fun r ->
      match Json.mem_float "time_s" r with
      | Some v -> acc := ((row_key r, "time_s"), v) :: !acc
      | None -> ())
    (Json.mem_list "rows" doc);
  List.iter
    (fun sec ->
      let section = Option.value ~default:"" (Json.mem_string "section" sec) in
      List.iter
        (fun sp ->
          let name = Option.value ~default:"" (Json.mem_string "name" sp) in
          let key = Printf.sprintf "sections/%s/%s" section name in
          (match Json.mem_float "self_s" sp with
          | Some v -> acc := ((key, "self_s"), v) :: !acc
          | None -> ());
          match Json.mem_float "total_s" sp with
          | Some v -> acc := ((key, "total_s"), v) :: !acc
          | None -> ())
        (Json.mem_list "spans" sec))
    (Json.mem_list "sections" doc);
  !acc

let compared_metrics ~baseline ~current =
  let cur = metrics_of current in
  List.length
    (List.filter
       (fun (k, v) -> v >= min_comparable_s && List.mem_assoc k cur)
       (metrics_of baseline))

let compare_bench ~baseline ~current ~threshold =
  let base = metrics_of baseline in
  let cur = metrics_of current in
  let regs =
    List.filter_map
      (fun ((key, metric), bv) ->
        if bv < min_comparable_s then None
        else
          match List.assoc_opt (key, metric) cur with
          | Some cv when cv > bv *. (1.0 +. threshold) ->
              Some
                {
                  g_where = key;
                  g_metric = metric;
                  g_baseline = bv;
                  g_current = cv;
                  g_ratio = cv /. bv;
                }
          | Some _ | None -> None)
      base
  in
  List.sort (fun a b -> Stdlib.compare b.g_ratio a.g_ratio) regs

let regressions_to_text ~threshold ~compared regs =
  let b = Buffer.create 512 in
  Printf.bprintf b "perf compare: threshold +%.0f%%, %d metric(s) compared\n"
    (threshold *. 100.0) compared;
  if regs = [] then Buffer.add_string b "OK: no per-section regressions\n"
  else
    List.iter
      (fun g ->
        Printf.bprintf b
          "REGRESSION %s %s: %.4fs -> %.4fs (%.2fx, +%.0f%%)\n" g.g_where
          g.g_metric g.g_baseline g.g_current g.g_ratio
          ((g.g_ratio -. 1.0) *. 100.0))
      regs;
  Buffer.contents b
