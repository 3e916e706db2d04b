(* Tests for the sweep engine: spec round-trip, deterministic sampling,
   the domain worker pool, summary statistics, the plan-replay
   abstraction cache and end-to-end sweep determinism. *)

module Circuits = Amsvp_netlist.Circuits
module Circuit = Amsvp_netlist.Circuit
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Spec = Amsvp_sweep.Spec
module Sampler = Amsvp_sweep.Sampler
module Pool = Amsvp_sweep.Pool
module Stats = Amsvp_sweep.Stats
module Abscache = Amsvp_sweep.Abscache
module Runner = Amsvp_sweep.Runner
module Report = Amsvp_sweep.Report
module Obs = Amsvp_obs.Obs
module Health = Amsvp_probe.Health
module Component = Amsvp_netlist.Component
module Diag = Amsvp_diag.Diag
module Json = Amsvp_util.Json

let rich_spec =
  {
    Spec.name = "mc_rect";
    circuit = Some "RECT";
    output = Some "V(out,gnd)";
    stimulus = Some (Spec.Sine { freq = 1e3; amplitude = 1.0 });
    t_stop = Some 2e-3;
    dt = Some 1e-6;
    mode = `Exact;
    integration = `Trapezoidal;
    samples = 8;
    seed = 42;
    jobs = Some 2;
    reference = false;
    fidelity = None;
    nrmse_budget = Some 0.25;
    amplitude_limit = Some 50.0;
    point_timeout = Some 30.0;
    axes =
      [
        { Spec.param = "r1.r"; range = Spec.Grid { lo = 0.5e3; hi = 2e3; n = 3 } };
        { Spec.param = "d1.g_on";
          range = Spec.Uniform { lo = 5e-3; hi = 2e-2 } };
        { Spec.param = "d1.g_off";
          range = Spec.Normal { mean = 1e-6; sigma = 1e-7 } };
      ];
    corners =
      [
        { Spec.corner_name = "worst";
          binds = [ ("r1.r", 2.2e3); ("d1.g_on", 4e-3) ] };
      ];
  }

(* Spec *)

let test_spec_roundtrip () =
  let text = Spec.to_string rich_spec in
  (match Spec.of_string text with
  | Ok s -> Alcotest.(check bool) "round-trips" true (s = rich_spec)
  | Error m -> Alcotest.failf "reparse failed: %s" m);
  match Spec.of_string (Spec.to_string Spec.default) with
  | Ok s -> Alcotest.(check bool) "default round-trips" true (s = Spec.default)
  | Error m -> Alcotest.failf "default reparse failed: %s" m

let test_spec_parse_errors () =
  let err text =
    match Spec.of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error m -> m
  in
  let m = err "sweep ok\nbogus directive\n" in
  Alcotest.(check bool) "line number" true
    (String.length m >= 7 && String.sub m 0 7 = "line 2:");
  ignore (err "param r1.r grid 1 2\n" : string);
  ignore (err "t_stop nope\n" : string);
  ignore (err "corner c r1.r\n" : string);
  (* Comments and blank lines are transparent. *)
  match Spec.of_string "# comment only\n\n  \t\nseed 9 # trailing\n" with
  | Ok s -> Alcotest.(check int) "seed" 9 s.Spec.seed
  | Error m -> Alcotest.failf "comment handling: %s" m

let test_spec_validate () =
  (match Spec.validate rich_spec with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid spec rejected: %s" m);
  let bad axes = { rich_spec with Spec.axes } in
  let rejected s =
    match Spec.validate s with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty spec" true (rejected Spec.default);
  Alcotest.(check bool) "duplicate axis" true
    (rejected
       (bad
          [
            { Spec.param = "r1.r"; range = Spec.Values [ 1.0 ] };
            { Spec.param = "r1.r"; range = Spec.Values [ 2.0 ] };
          ]));
  Alcotest.(check bool) "inverted grid" true
    (rejected
       (bad [ { Spec.param = "r1.r"; range = Spec.Grid { lo = 2.0; hi = 1.0; n = 2 } } ]));
  Alcotest.(check bool) "bad samples" true
    (rejected { rich_spec with Spec.samples = 0 });
  Alcotest.(check bool) "non-positive nrmse budget" true
    (rejected { rich_spec with Spec.nrmse_budget = Some 0.0 })

let test_point_count () =
  (* 3 grid values x 8 samples + 1 corner. *)
  Alcotest.(check int) "count" 25 (Spec.point_count rich_spec);
  let grid_only =
    {
      Spec.default with
      Spec.axes =
        [
          { Spec.param = "a.r"; range = Spec.Grid { lo = 0.; hi = 1.; n = 4 } };
          { Spec.param = "b.r"; range = Spec.Values [ 1.; 2.; 3. ] };
        ];
    }
  in
  (* No Monte Carlo axis: samples is ignored. *)
  Alcotest.(check int) "grid product" 12
    (Spec.point_count { grid_only with Spec.samples = 100 })

(* Sampler *)

let test_sampler_deterministic () =
  let p1 = Sampler.points rich_spec and p2 = Sampler.points rich_spec in
  Alcotest.(check bool) "same spec, same points" true (p1 = p2);
  Alcotest.(check int) "length = point_count"
    (Spec.point_count rich_spec)
    (List.length p1);
  let p3 = Sampler.points { rich_spec with Spec.seed = 43 } in
  Alcotest.(check bool) "different seed, different draws" true (p1 <> p3);
  (* Grid coordinates are seed-independent. *)
  List.iter2
    (fun (a : Sampler.point) (b : Sampler.point) ->
      Alcotest.(check (float 0.0))
        "grid coordinate"
        (List.assoc "r1.r" a.Sampler.overrides)
        (List.assoc "r1.r" b.Sampler.overrides))
    p1 p3

let test_sampler_expansion () =
  let spec =
    {
      Spec.default with
      Spec.axes =
        [
          { Spec.param = "a.r"; range = Spec.Grid { lo = 0.0; hi = 1.0; n = 3 } };
          { Spec.param = "b.r"; range = Spec.Values [ 10.0; 20.0 ] };
        ];
      corners = [ { Spec.corner_name = "hot"; binds = [ ("a.r", 9.0) ] } ];
    }
  in
  let pts = Array.of_list (Sampler.points spec) in
  Alcotest.(check int) "6 grid + 1 corner" 7 (Array.length pts);
  (* First axis slowest, endpoints included. *)
  let coord i k = List.assoc k pts.(i).Sampler.overrides in
  Alcotest.(check (float 1e-12)) "a[0]" 0.0 (coord 0 "a.r");
  Alcotest.(check (float 1e-12)) "b[0]" 10.0 (coord 0 "b.r");
  Alcotest.(check (float 1e-12)) "b[1]" 20.0 (coord 1 "b.r");
  Alcotest.(check (float 1e-12)) "a[2]" 0.5 (coord 2 "a.r");
  Alcotest.(check (float 1e-12)) "a[5]" 1.0 (coord 5 "a.r");
  Alcotest.(check string) "corner label" "hot" pts.(6).Sampler.label;
  Array.iteri
    (fun i (p : Sampler.point) ->
      Alcotest.(check int) "index" i p.Sampler.index)
    pts;
  (* Monte Carlo draws stay inside the declared range. *)
  let mc =
    {
      Spec.default with
      Spec.samples = 200;
      seed = 7;
      axes =
        [ { Spec.param = "a.r"; range = Spec.Uniform { lo = 2.0; hi = 3.0 } } ];
    }
  in
  List.iter
    (fun (p : Sampler.point) ->
      let v = List.assoc "a.r" p.Sampler.overrides in
      Alcotest.(check bool) "in range" true (v >= 2.0 && v < 3.0))
    (Sampler.points mc)

(* Pool *)

let test_pool_exactly_once () =
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let items = Array.init n (fun i -> i) in
  let results =
    Pool.run ~jobs:4
      (fun i ->
        Atomic.incr hits.(i);
        i * i)
      items
  in
  Alcotest.(check int) "all results" n (Array.length results);
  Array.iteri
    (fun i r -> Alcotest.(check int) "in order" (i * i) r)
    results;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "hit %d" i) 1 (Atomic.get c))
    hits

let test_pool_single_job_inline () =
  let results = Pool.run ~jobs:1 (fun i -> i + 1) (Array.init 10 Fun.id) in
  Alcotest.(check (array int)) "inline" (Array.init 10 (fun i -> i + 1)) results

let test_pool_exception () =
  (match Pool.run ~jobs:4 (fun i -> if i = 17 then failwith "boom" else i)
           (Array.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  match Pool.run ~jobs:0 Fun.id [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_pool_counters_under_contention () =
  (* Satellite check: Obs counters accumulate exactly under domain
     contention (they are single atomic RMWs). *)
  let c = Obs.Counter.make "test_sweep_contention_total" in
  let before = Obs.Counter.value c in
  let _ =
    Pool.run ~jobs:4
      (fun _ ->
        for _ = 1 to 1000 do
          Obs.Counter.incr c
        done)
      (Array.make 8 ())
  in
  Alcotest.(check int) "8000 increments" (before + 8000) (Obs.Counter.value c)

(* Stats *)

let test_stats_fixture () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  match Stats.of_array xs with
  | None -> Alcotest.fail "stats of non-empty array"
  | Some s ->
      Alcotest.(check int) "n" 10 s.Stats.n;
      Alcotest.(check (float 1e-12)) "min" 1.0 s.Stats.min;
      Alcotest.(check (float 1e-12)) "max" 10.0 s.Stats.max;
      Alcotest.(check (float 1e-12)) "mean" 5.5 s.Stats.mean;
      Alcotest.(check (float 1e-12)) "stddev" (sqrt 8.25) s.Stats.stddev;
      Alcotest.(check (float 1e-12)) "p50" 5.5 s.Stats.p50;
      Alcotest.(check (float 1e-12)) "p95" 9.55 s.Stats.p95

let test_stats_edge () =
  Alcotest.(check bool) "empty" true (Stats.of_array [||] = None);
  (match Stats.of_array [| 3.0 |] with
  | Some s ->
      Alcotest.(check (float 0.0)) "single p95" 3.0 s.Stats.p95;
      Alcotest.(check (float 0.0)) "single stddev" 0.0 s.Stats.stddev
  | None -> Alcotest.fail "singleton");
  match Stats.quantile [| 1.0; 2.0 |] 1.5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Abstraction cache *)

let dt = 1e-6

let probed_testcase label =
  let tc = Option.get (Circuits.by_name label) in
  (tc, Flow.insert_probes tc.Circuits.circuit ~outputs:[ tc.Circuits.output ])

let test_cache_replay_matches_full () =
  List.iter
    (fun (label, overrides) ->
      let tc, probed = probed_testcase label in
      let cache =
        Abscache.build ~name:"replay" ~dt probed
          ~outputs:[ tc.Circuits.output ]
      in
      let circuit = Circuit.override probed overrides in
      let full =
        (Flow.abstract_circuit ~name:"replay" circuit
           ~outputs:[ tc.Circuits.output ] ~dt)
          .Flow.program
      in
      match Abscache.rebind cache circuit with
      | None -> Alcotest.failf "%s: replay failed" label
      | Some replayed ->
          Alcotest.(check bool)
            (label ^ ": replayed program = full abstraction")
            true (replayed = full))
    [
      ("RC1", [ ("r1.r", 7.5e3); ("c1.c", 10e-9) ]);
      ("RC4", [ ("r3.r", 1e3) ]);
      ("RLC", [ ("l1.l", 4.7e-3); ("c1.c", 2.2e-6) ]);
      (* PWL device: exercises the direct-definition fallback. *)
      ("RECT", [ ("d1.g_on", 2e-2); ("d1.g_off", 5e-7) ]);
      ("2IN", [ ("r2.r", 12e3) ]);
    ]

let test_cache_rejects_other_structure () =
  let _, probed = probed_testcase "RC1" in
  let cache =
    Abscache.build ~name:"k" ~dt probed
      ~outputs:[ Expr.potential "out" "gnd" ]
  in
  Alcotest.(check bool) "definitions recorded" true
    (Abscache.definitions cache > 0);
  let _, other = probed_testcase "RC4" in
  Alcotest.(check bool) "different structure" true
    (Abscache.rebind cache other = None)

(* Runner + report *)

let small_spec jobs =
  {
    Spec.default with
    Spec.name = "t";
    circuit = Some "RECT";
    t_stop = Some 1e-3;
    samples = 6;
    seed = 5;
    jobs = Some jobs;
    axes =
      [
        { Spec.param = "d1.g_on"; range = Spec.Uniform { lo = 5e-3; hi = 2e-2 } };
      ];
    corners =
      [ { Spec.corner_name = "nom"; binds = [ ("d1.g_on", 1e-2) ] } ];
  }

let run_small jobs =
  let spec = small_spec jobs in
  let tc = Option.get (Circuits.by_name "RECT") in
  Runner.run spec tc

let point_values (s : Runner.summary) =
  Array.map
    (fun (r : Runner.point_result) ->
      (r.Runner.point.Sampler.overrides, r.Runner.out_final, r.Runner.out_rms,
       r.Runner.nrmse, r.Runner.cached))
    s.Runner.points

let test_runner_jobs_invariant () =
  let s1 = run_small 1 and s2 = run_small 2 in
  Alcotest.(check int) "7 points" 7 (Array.length s1.Runner.points);
  Alcotest.(check bool) "values identical across jobs" true
    (point_values s1 = point_values s2);
  Alcotest.(check int) "all points replayed from the cache" 7
    s1.Runner.cache_hits;
  Alcotest.(check int) "no full abstractions" 0 s1.Runner.cache_misses;
  match s1.Runner.nrmse_stats with
  | None -> Alcotest.fail "reference on, nrmse expected"
  | Some st ->
      (* The region-switching model lags the Newton reference by one
         sample around each diode transition; anything beyond ~1e-2
         would mean a genuinely wrong waveform. *)
      Alcotest.(check bool) "nrmse small" true (st.Stats.max < 1e-2)

let test_report_outputs () =
  let s = run_small 1 in
  let json = Report.json s in
  Alcotest.(check bool) "json object" true
    (match Json.parse json with Json.Obj _ -> true | _ -> false);
  let count_char c str =
    String.fold_left (fun n x -> if x = c then n + 1 else n) 0 str
  in
  Alcotest.(check int) "balanced braces" (count_char '{' json)
    (count_char '}' json);
  Alcotest.(check int) "balanced brackets" (count_char '[' json)
    (count_char ']' json);
  let csv = Report.csv s in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "header + one row per point" 8 (List.length lines);
  let cols l = List.length (String.split_on_char ',' l) in
  let width = cols (List.hd lines) in
  List.iter
    (fun l -> Alcotest.(check int) "rectangular csv" width (cols l))
    lines

(* Health verdicts *)

let test_healthy_points_reported_ok () =
  let s = run_small 1 in
  Alcotest.(check int) "no unhealthy point" 0 s.Runner.unhealthy;
  Array.iter
    (fun (r : Runner.point_result) ->
      Alcotest.(check bool) "verdict healthy" true
        r.Runner.health.Health.v_healthy)
    s.Runner.points

let test_nan_point_flagged () =
  (* A deliberately poisoned point: r1.r = NaN propagates through the
     replayed program's coefficients into the output trace, and the
     watchdog must name the offending signal and instant while the
     companion point stays healthy. *)
  let spec =
    {
      Spec.default with
      Spec.name = "nan_inject";
      circuit = Some "RECT";
      t_stop = Some 2e-4;
      reference = false;
      axes = [ { Spec.param = "r1.r"; range = Spec.Values [ 1e3; nan ] } ];
    }
  in
  let tc = Option.get (Circuits.by_name "RECT") in
  let s = Runner.run spec tc in
  Alcotest.(check int) "two points" 2 (Array.length s.Runner.points);
  Alcotest.(check int) "one unhealthy" 1 s.Runner.unhealthy;
  let good = s.Runner.points.(0) and bad = s.Runner.points.(1) in
  Alcotest.(check bool) "nominal point healthy" true
    good.Runner.health.Health.v_healthy;
  Alcotest.(check bool) "poisoned point flagged" false
    bad.Runner.health.Health.v_healthy;
  (match bad.Runner.health.Health.v_issues with
  | [ { Health.kind = Health.Nan_or_inf; time; value } ] ->
      Alcotest.(check string) "offending signal" "V(out,gnd)"
        bad.Runner.health.Health.v_signal;
      Alcotest.(check bool) "timestamp inside the run" true
        (time >= 0.0 && time <= 2e-4);
      Alcotest.(check bool) "offending value is non-finite" false
        (Float.is_finite value)
  | issues ->
      Alcotest.failf "expected exactly the nan issue, got %d" (List.length issues));
  (* The verdict reaches both report formats. *)
  let json = Json.parse (Report.json s) in
  let health i =
    Json.member "health" (List.nth (Json.mem_list "results" json) i)
  in
  Alcotest.(check (option (float 0.0))) "json summary counts it" (Some 1.0)
    (Json.mem_float "unhealthy" json);
  Alcotest.(check (option string)) "json verdict object" (Some "V(out,gnd)")
    (Option.bind (health 1) (Json.mem_string "signal"));
  Alcotest.(check bool) "json ok for the good point" true
    (health 0 = Some (Json.Str "ok"));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let csv = Report.csv s in
  Alcotest.(check bool) "csv health column" true
    (contains csv ",health,");
  Alcotest.(check bool) "csv flags the nan" true (contains csv "nan@")

let test_fast_fail_diagnoses_once () =
  (* A structurally defective model must be rejected at sweep setup —
     one located finding — not rediscovered by every scenario point.
     The points counter proves no point was ever expanded or run. *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"v1" ~pos:"a" ~neg:"gnd" (Component.Dc 1.0);
  Circuit.add_vsource c ~name:"v2" ~pos:"a" ~neg:"gnd" (Component.Dc 2.0);
  let tc =
    {
      Circuits.label = "BAD";
      circuit = c;
      output = Expr.potential "a" "gnd";
      stimuli = [];
    }
  in
  let spec =
    {
      Spec.default with
      Spec.name = "bad_sweep";
      t_stop = Some 1e-4;
      axes = [ { Spec.param = "v1.dc"; range = Spec.Values [ 1.0; 2.0; 3.0 ] } ];
    }
  in
  let points = Obs.Counter.make "amsvp_sweep_points_total" in
  let before = Obs.Counter.value points in
  (match Runner.run spec tc with
  | _ -> Alcotest.fail "expected Diag.Rejected"
  | exception Diag.Rejected f ->
      Alcotest.(check string) "voltage-source loop code" "AMS022" f.Diag.code);
  Alcotest.(check int) "no point executed" before (Obs.Counter.value points)

let test_nrmse_budget_watchdog () =
  (* With the reference on and a budget tighter than the actual error,
     every point trips the nrmse-budget watchdog; with a loose budget,
     none does. *)
  let base = small_spec 1 in
  let tc = Option.get (Circuits.by_name "RECT") in
  let run budget =
    Runner.run { base with Spec.nrmse_budget = Some budget } tc
  in
  let tight = run 1e-9 in
  Alcotest.(check int) "tight budget flags all points"
    (Array.length tight.Runner.points)
    tight.Runner.unhealthy;
  Array.iter
    (fun (r : Runner.point_result) ->
      match
        List.find_opt
          (fun (i : Health.issue) -> i.Health.kind = Health.Nrmse_budget)
          r.Runner.health.Health.v_issues
      with
      | Some _ -> ()
      | None -> Alcotest.fail "expected an nrmse-budget issue")
    tight.Runner.points;
  let loose = run 0.5 in
  Alcotest.(check int) "loose budget is quiet" 0 loose.Runner.unhealthy

(* Static pruning: on an RC low-pass swept across a resistance decade,
   a 0.5 V amplitude limit is provably breached at the low-R end. The
   pruned run must (a) skip exactly the points the unpruned run flags
   amplitude-unhealthy — the proof is MUST, never a guess — and (b)
   leave every surviving point's result byte-identical. *)
let prune_spec =
  {
    Spec.default with
    Spec.name = "rc_prune";
    circuit = Some "RC1";
    stimulus = Some (Spec.Sine { freq = 2e3; amplitude = 1.0 });
    t_stop = Some 2e-3;
    reference = false;
    amplitude_limit = Some 0.5;
    axes =
      [
        { Spec.param = "r1.r"; range = Spec.Grid { lo = 1e3; hi = 1e6; n = 6 } };
      ];
  }

let test_prune_static_sound_and_deterministic () =
  let tc = Option.get (Circuits.by_name "RC1") in
  let plain = Runner.run prune_spec tc in
  let pruned = Runner.run ~prune:true prune_spec tc in
  Alcotest.(check int) "same expansion" (Array.length plain.Runner.points)
    (Array.length pruned.Runner.points);
  Alcotest.(check int) "nothing pruned without the flag" 0
    plain.Runner.pruned;
  Alcotest.(check bool) "something was pruned" true (pruned.Runner.pruned > 0);
  let is_pruned (r : Runner.point_result) =
    List.exists
      (fun (i : Health.issue) -> i.Health.kind = Health.Pruned)
      r.Runner.health.Health.v_issues
  in
  let amplitude_unhealthy (r : Runner.point_result) =
    List.exists
      (fun (i : Health.issue) -> i.Health.kind = Health.Amplitude)
      r.Runner.health.Health.v_issues
  in
  Array.iteri
    (fun i (r : Runner.point_result) ->
      let full = plain.Runner.points.(i) in
      if is_pruned r then begin
        (* soundness: the simulated run really trips the watchdog *)
        Alcotest.(check bool)
          (Printf.sprintf "pruned point %d is truly unhealthy" i)
          true
          (amplitude_unhealthy full);
        Alcotest.(check bool) "pruned verdict is distinct" false
          (amplitude_unhealthy r)
      end
      else begin
        (* survivors: value results byte-identical to the plain run *)
        Alcotest.(check bool)
          (Printf.sprintf "survivor %d 's values untouched" i)
          true
          (Float.equal full.Runner.out_final r.Runner.out_final
          && Float.equal full.Runner.out_rms r.Runner.out_rms
          && full.Runner.health.Health.v_healthy
             = r.Runner.health.Health.v_healthy)
      end)
    pruned.Runner.points;
  (* summary accounting: pruned points are a subset of unhealthy *)
  Alcotest.(check bool) "pruned counted unhealthy" true
    (pruned.Runner.unhealthy >= pruned.Runner.pruned);
  (* determinism: pruning twice gives the identical report *)
  let again = Runner.run ~prune:true prune_spec tc in
  Alcotest.(check string) "prune is deterministic"
    (Report.json ~timings:false pruned)
    (Report.json ~timings:false again);
  (* the report surfaces the verdict and the counter *)
  let json = Json.parse (Report.json ~timings:false pruned) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check (option (float 0.0))) "json counts pruned"
    (Some (float_of_int pruned.Runner.pruned))
    (Json.mem_float "pruned" json);
  let issue_kinds r =
    match Json.member "health" r with
    | Some h ->
        List.filter_map (Json.mem_string "kind") (Json.mem_list "issues" h)
    | None -> []
  in
  Alcotest.(check bool) "json carries the verdict" true
    (List.exists
       (fun r -> List.mem "pruned" (issue_kinds r))
       (Json.mem_list "results" json));
  Alcotest.(check bool) "csv carries the verdict" true
    (contains (Report.csv ~timings:false pruned) "pruned@")

let () =
  Alcotest.run "sweep"
    [
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          Alcotest.test_case "validate" `Quick test_spec_validate;
          Alcotest.test_case "point count" `Quick test_point_count;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "expansion" `Quick test_sampler_expansion;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exactly once" `Quick test_pool_exactly_once;
          Alcotest.test_case "single job inline" `Quick
            test_pool_single_job_inline;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "counters under contention" `Quick
            test_pool_counters_under_contention;
        ] );
      ( "stats",
        [
          Alcotest.test_case "fixture" `Quick test_stats_fixture;
          Alcotest.test_case "edge cases" `Quick test_stats_edge;
        ] );
      ( "cache",
        [
          Alcotest.test_case "replay matches full" `Quick
            test_cache_replay_matches_full;
          Alcotest.test_case "rejects other structure" `Quick
            test_cache_rejects_other_structure;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs invariant" `Quick test_runner_jobs_invariant;
          Alcotest.test_case "report outputs" `Quick test_report_outputs;
          Alcotest.test_case "fast-fail on bad model" `Quick
            test_fast_fail_diagnoses_once;
          Alcotest.test_case "static pruning sound and deterministic" `Quick
            test_prune_static_sound_and_deterministic;
        ] );
      ( "health",
        [
          Alcotest.test_case "healthy points ok" `Quick
            test_healthy_points_reported_ok;
          Alcotest.test_case "nan point flagged" `Quick test_nan_point_flagged;
          Alcotest.test_case "nrmse budget watchdog" `Quick
            test_nrmse_budget_watchdog;
        ] );
    ]
