module Health = Amsvp_probe.Health
module Json = Amsvp_util.Json

let json ?(timings = true) (s : Runner.summary) =
  let open Json in
  let int i = Num (float_of_int i) in
  let timed v = Num (if timings then v else 0.0) in
  let stats (st : Stats.t) =
    Obj
      [ ("n", int st.n); ("min", Num st.min); ("max", Num st.max);
        ("mean", Num st.mean); ("stddev", Num st.stddev);
        ("p50", Num st.p50); ("p95", Num st.p95) ]
  in
  let health (v : Health.verdict) =
    if v.Health.v_healthy then Str "ok"
    else
      Obj
        [ ("signal", Str v.Health.v_signal);
          ("issues", Arr (List.map Point_result.issue_json v.Health.v_issues)) ]
  in
  let result (r : Runner.point_result) =
    Point_result.row r
      [ ("health", health r.health); ("cached", Bool r.cached);
        ("wall_s", timed r.wall_s) ]
  in
  let stats_fields =
    List.filter_map
      (fun (k, v) -> Option.map (fun st -> (k, stats st)) v)
      [ ("nrmse", s.nrmse_stats);
        ("wall_s", if timings then s.wall_stats else None);
        ("out_rms", s.rms_stats) ]
  in
  print
    (Obj
       [ ("sweep", Str s.spec.Spec.name); ("circuit", Str s.label);
         ("seed", int s.spec.Spec.seed); ("jobs", int s.jobs);
         ("points", int (Array.length s.points));
         ("unhealthy", int s.unhealthy); ("pruned", int s.pruned);
         ("cache_hits", int s.cache_hits);
         ("cache_misses", int s.cache_misses);
         ("total_s", timed s.total_s); ("stats", Obj stats_fields);
         ("results", Arr (Array.to_list (Array.map result s.points))) ])

(* Override keys in first-appearance order across all points (corners
   may bind a subset of the axis parameters). *)
let override_columns (s : Runner.summary) =
  let seen = Hashtbl.create 8 in
  let cols = ref [] in
  Array.iter
    (fun (r : Runner.point_result) ->
      List.iter
        (fun (k, _) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            cols := k :: !cols
          end)
        r.point.Sampler.overrides)
    s.points;
  List.rev !cols

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv ?(timings = true) (s : Runner.summary) =
  let b = Buffer.create 4096 in
  let cols = override_columns s in
  let cell v = if Float.is_finite v then Printf.sprintf "%.17g" v else "" in
  Buffer.add_string b
    (String.concat ","
       ([ "index"; "label" ]
       @ List.map csv_escape cols
       @ [ "out_final"; "out_rms"; "nrmse"; "health"; "cached"; "wall_s" ]));
  Buffer.add_char b '\n';
  Array.iter
    (fun (r : Runner.point_result) ->
      let over k =
        match List.assoc_opt k r.point.Sampler.overrides with
        | Some v -> cell v
        | None -> ""
      in
      Buffer.add_string b
        (String.concat ","
           ([
              string_of_int r.point.Sampler.index;
              csv_escape r.point.Sampler.label;
            ]
           @ List.map over cols
           @ [
               cell r.out_final;
               cell r.out_rms;
               (match r.nrmse with Some e -> cell e | None -> "");
               (if r.health.Health.v_healthy then "ok"
                else
                  csv_escape
                    (String.concat ";"
                       (List.map
                          (fun (i : Health.issue) ->
                            Printf.sprintf "%s@%.9g"
                              (Health.kind_label i.Health.kind)
                              i.Health.time)
                          r.health.Health.v_issues)));
               string_of_bool r.cached;
               (if timings then cell r.wall_s else "");
             ]));
      Buffer.add_char b '\n')
    s.points;
  Buffer.contents b

let write ~basename s =
  let out path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  [
    out (basename ^ ".json") (json s ^ "\n");
    out (basename ^ ".csv") (csv s);
  ]
