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
  r_profile : span_profile list;
  r_convergence : convergence option;
  r_cache : cache option;
  r_health : health option;
  r_traffic : traffic option;
  r_origins : origin_row list;
}

(* ---- journal helpers ---- *)

let ev_cat e = Option.value ~default:"" (Json.mem_string "cat" e)
let ev_name e = Option.value ~default:"" (Json.mem_string "name" e)
let ev_sev e = Option.value ~default:"info" (Json.mem_string "sev" e)
let ev_data e = Option.value ~default:(Json.Obj []) (Json.member "data" e)

let data_float k e = Json.mem_float k (ev_data e)
let data_int k e = Option.map int_of_float (Json.mem_float k (ev_data e))
let data_bool k e = Json.mem_bool k (ev_data e)

(* The decade bounds of the solver's residual histogram; counts here
   are per-bucket (not cumulative), which reads better as a bar
   chart. *)
let residual_bounds = [| 1e-15; 1e-12; 1e-9; 1e-6; 1e-3; 1.0; 1e3 |]

let build_convergence events =
  let steps = List.filter (fun e -> ev_cat e = "mna") events in
  let newton_steps = List.filter (fun e -> ev_name e = "newton.step") steps in
  let runs = List.filter (fun e -> ev_name e = "newton.run") steps in
  let singular =
    List.length (List.filter (fun e -> ev_name e = "singular_pivot") steps)
  in
  let conditioning =
    List.length (List.filter (fun e -> ev_name e = "conditioning") steps)
  in
  if newton_steps = [] && runs = [] && singular = 0 then None
  else begin
    let nb = Array.length residual_bounds in
    let hist = Array.make (nb + 1) 0 in
    let conv : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let wasted = ref 0 and max_res = ref 0.0 and max_stress = ref 0.0 in
    List.iter
      (fun e ->
        (match data_float "residual" e with
        | Some r ->
            if r > !max_res then max_res := r;
            let i = ref 0 in
            while !i < nb && r > residual_bounds.(!i) do
              incr i
            done;
            hist.(!i) <- hist.(!i) + 1
        | None -> ());
        (match data_int "converged_at" e with
        | Some k ->
            Hashtbl.replace conv k
              (1 + Option.value ~default:0 (Hashtbl.find_opt conv k))
        | None -> ());
        (match data_int "wasted" e with
        | Some w -> wasted := !wasted + w
        | None -> ());
        match data_float "stress" e with
        | Some s -> if s > !max_stress then max_stress := s
        | None -> ())
      newton_steps;
    let total_iters =
      List.fold_left
        (fun acc e -> acc + Option.value ~default:0 (data_int "total_iters" e))
        0 runs
    in
    let cv_residual_hist =
      List.init (nb + 1) (fun i ->
          ((if i < nb then residual_bounds.(i) else infinity), hist.(i)))
    in
    let cv_converged_hist =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) conv []
      |> List.sort Stdlib.compare
    in
    Some
      {
        cv_steps = List.length newton_steps;
        cv_residual_hist;
        cv_converged_hist;
        cv_wasted = !wasted;
        cv_total_iters = total_iters;
        cv_max_residual = !max_res;
        cv_max_stress = !max_stress;
        cv_singular = singular;
        cv_conditioning = conditioning;
      }
  end

let build_cache events =
  let pts =
    List.filter (fun e -> ev_cat e = "sweep" && ev_name e = "point") events
  in
  if pts = [] then None
  else begin
    let hits = ref 0 and unhealthy = ref 0 and wall = ref 0.0 in
    List.iter
      (fun e ->
        if data_bool "cached" e = Some true then incr hits;
        if data_bool "healthy" e = Some false then incr unhealthy;
        wall := !wall +. Option.value ~default:0.0 (data_float "wall_s" e))
      pts;
    let n = List.length pts in
    Some
      {
        ca_points = n;
        ca_hits = !hits;
        ca_misses = n - !hits;
        ca_wall_mean_s = !wall /. float_of_int n;
        ca_unhealthy = !unhealthy;
      }
  end

let build_health events =
  let flagged =
    List.filter (fun e -> ev_sev e = "warn" || ev_sev e = "error") events
  in
  if flagged = [] then None
  else begin
    let warn = ref 0 and error = ref 0 in
    let kinds : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if ev_sev e = "error" then incr error else incr warn;
        let k = ev_cat e ^ "/" ^ ev_name e in
        Hashtbl.replace kinds k
          (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
      flagged;
    let he_kinds =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
      |> List.sort Stdlib.compare
    in
    Some { he_warn = !warn; he_error = !error; he_kinds }
  end

let build_traffic events =
  let runs =
    List.filter (fun e -> ev_cat e = "sf" && ev_name e = "run") events
  in
  if runs = [] then None
  else begin
    let ticks = ref 0 and reads = ref 0 and writes = ref 0 and flops = ref 0 in
    List.iter
      (fun e ->
        let t = Option.value ~default:0 (data_int "ticks" e) in
        let per k = t * Option.value ~default:0 (data_int k e) in
        ticks := !ticks + t;
        reads := !reads + per "reads_per_tick";
        writes := !writes + per "writes_per_tick";
        flops := !flops + per "flops_per_tick")
      runs;
    Some
      {
        tf_runs = List.length runs;
        tf_ticks = !ticks;
        tf_reads = !reads;
        tf_writes = !writes;
        tf_flops = !flops;
      }
  end

(* Per-process breakdown of a merged journal. A single-process journal
   (no event carries an origin tag) yields [] so old reports are
   unchanged. *)
let build_origins events =
  let ev_origin e = Option.value ~default:"" (Json.mem_string "origin" e) in
  if List.for_all (fun e -> ev_origin e = "") events then []
  else begin
    let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let o = ev_origin e in
        let evs, pts = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl o) in
        let is_point = ev_cat e = "sweep" && ev_name e = "point" in
        Hashtbl.replace tbl o (evs + 1, if is_point then pts + 1 else pts))
      events;
    Hashtbl.fold
      (fun o (evs, pts) acc ->
        {
          og_origin = (if o = "" then "main" else o);
          og_events = evs;
          og_points = pts;
        }
        :: acc)
      tbl []
    |> List.sort (fun a b -> Stdlib.compare a.og_origin b.og_origin)
  end

let build_profile ~top bench =
  match bench with
  | None -> []
  | Some doc ->
      let spans =
        List.concat_map
          (fun sec ->
            let section =
              Option.value ~default:"" (Json.mem_string "section" sec)
            in
            List.map
              (fun sp ->
                {
                  sp_section = section;
                  sp_name =
                    Option.value ~default:"" (Json.mem_string "name" sp);
                  sp_calls =
                    int_of_float
                      (Option.value ~default:0.0 (Json.mem_float "calls" sp));
                  sp_total_s =
                    Option.value ~default:0.0 (Json.mem_float "total_s" sp);
                  sp_self_s =
                    Option.value ~default:0.0 (Json.mem_float "self_s" sp);
                })
              (Json.mem_list "spans" sec))
          (Json.mem_list "sections" doc)
      in
      let sorted =
        List.sort (fun a b -> Stdlib.compare b.sp_self_s a.sp_self_s) spans
      in
      List.filteri (fun i _ -> i < top) sorted

let build ?(top = 15) ?(journal = []) ?bench () =
  {
    r_journal_events = List.length journal;
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
      Printf.bprintf b "\nCONVERGENCE (%d newton.step event(s))\n" cv.cv_steps;
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
       ([ ("journal_events", int r.r_journal_events) ]
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
                 Arr
                   (List.map
                      (fun (le, n) -> bucket "le" (Num le) n)
                      cv.cv_residual_hist) );
               ( "converged_at",
                 Arr
                   (List.map
                      (fun (k, n) -> bucket "iteration" (int k) n)
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
