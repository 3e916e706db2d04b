module Circuit = Amsvp_netlist.Circuit
module Circuits = Amsvp_netlist.Circuits
module Flow = Amsvp_core.Flow
module Engine = Amsvp_mna.Engine
module Sfprogram = Amsvp_sf.Sfprogram
module Stimulus = Amsvp_util.Stimulus
module Metrics = Amsvp_util.Metrics
module Trace = Amsvp_util.Trace
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal
module Health = Amsvp_probe.Health

type point_result = Point_result.t = {
  point : Sampler.point;
  out_final : float;
  out_rms : float;
  nrmse : float option;
  health : Health.verdict;
  cached : bool;
  wall_s : float;
}

type summary = {
  spec : Spec.t;
  label : string;
  jobs : int;
  points : point_result array;
  nrmse_stats : Stats.t option;
  wall_stats : Stats.t option;
  rms_stats : Stats.t option;
  unhealthy : int;
  pruned : int;
  cache_hits : int;
  cache_misses : int;
  total_s : float;
}

let default_dt = 1e-6
let default_t_stop = 3e-3

let c_points =
  Obs.Counter.make ~help:"sweep points executed" "amsvp_sweep_points_total"

let c_cache_hits =
  Obs.Counter.make ~help:"sweep points served by abstraction-plan replay"
    "amsvp_sweep_cache_hits_total"

let c_cache_misses =
  Obs.Counter.make ~help:"sweep points needing a full per-point abstraction"
    "amsvp_sweep_cache_misses_total"

let c_timeouts =
  Obs.Counter.make ~help:"sweep points aborted by the per-point timeout"
    "amsvp_sweep_point_timeouts_total"

let c_pruned =
  Obs.Counter.make ~help:"sweep points skipped by the static pruner"
    "amsvp_sweep_points_pruned_total"

let h_point_seconds =
  Obs.Histogram.make ~help:"wall-clock seconds per sweep point"
    ~buckets:[| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
    "amsvp_sweep_point_seconds"

let resolve (spec : Spec.t) =
  let label = Option.value spec.circuit ~default:"RECT" in
  match Circuits.by_name label with
  | Some tc -> Ok tc
  | None -> Error (Printf.sprintf "unknown circuit %S" label)

let stimulus_fn = function
  | Spec.Square { period; low; high } -> Stimulus.square ~period ~low ~high
  | Spec.Sine { freq; amplitude } -> Stimulus.sine ~freq ~amplitude

(* What every point of a prepared sweep records into: each input's
   samples at the run's step times, and one trace of the run's length
   that each point overwrites. *)
type scratch = {
  s_tables : (string * float array) list;
  s_trace : Trace.t;
}

(* A prepared sweep: everything shared by every point — the probed
   circuit, stimuli, the recorded abstraction plan and its compiled
   bytecode template — computed once.  The one-shot [run] builds one
   and discards it; the serve daemon keeps it warm across requests and
   forked worker shards inherit it for free. *)
type ctx = {
  c_spec : Spec.t;
  c_tc : Circuits.testcase;
  c_jobs : int;
  c_output : Expr.var;
  c_dt : float;
  c_t_stop : float;
  c_probed : Circuit.t;
  c_stim_assoc : (string * Stimulus.t) list;
  c_cache : Abscache.t;
  c_points : Sampler.point array;
  c_scratch : scratch Lazy.t;
      (** built by the first point a process runs, so the serve daemon,
          which only forwards points to its workers, never holds it *)
}

let ctx_points c = c.c_points

let prepare ?jobs ?spans (spec : Spec.t) (tc : Circuits.testcase) =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Sweep: " ^ m));
  let jobs =
    match (jobs, spec.jobs) with
    | Some j, _ -> j
    | None, Some j -> j
    | None, None -> 1
  in
  if jobs < 1 then invalid_arg "Sweep: jobs < 1";
  let output =
    match spec.output with
    | None -> tc.Circuits.output
    | Some s -> (
        match Expr.access_of_string s with
        | Ok v -> v
        | Error m -> invalid_arg ("Sweep: " ^ m))
  in
  let dt = Option.value spec.dt ~default:default_dt in
  let t_stop = Option.value spec.t_stop ~default:default_t_stop in
  let probed = Flow.insert_probes tc.Circuits.circuit ~outputs:[ output ] in
  let input_names = Circuit.input_signals probed in
  let stim_of name =
    match spec.stimulus with
    | Some st -> stimulus_fn st
    | None -> (
        match List.assoc_opt name tc.Circuits.stimuli with
        | Some f -> f
        | None -> Stimulus.constant 0.0)
  in
  let stim_assoc = List.map (fun n -> (n, stim_of n)) input_names in
  (* The plan is recorded once, before any worker is forked: the cache
     is immutable afterwards, so every point sees the same plan, inline
     or in any worker process, no matter the schedule. It is also the
     fast-fail: points only change parameter values, so a defect the
     flow rejects here would otherwise fail every point. *)
  let cache =
    Abscache.build ~mode:spec.mode ~integration:spec.integration ?spans
      ~name:(tc.Circuits.label ^ "_sweep") ~dt probed ~outputs:[ output ]
  in
  let points = Array.of_list (Sampler.points spec) in
  let scratch =
    lazy
      (let n = int_of_float (Float.round (t_stop /. dt)) + 1 in
       {
         s_tables =
           List.map (fun (name, f) -> (name, Stimulus.sample f ~dt ~n)) stim_assoc;
         s_trace = Trace.create ~capacity:n ();
       })
  in
  {
    c_spec = spec;
    c_tc = tc;
    c_jobs = jobs;
    c_output = output;
    c_dt = dt;
    c_t_stop = t_stop;
    c_probed = probed;
    c_stim_assoc = stim_assoc;
    c_cache = cache;
    c_points = points;
    c_scratch = scratch;
  }

(* Cooperative per-point timeout: the runners' [?observe] hook fires
   once per step, so a deadline check there aborts a runaway point from
   inside the loop without preemption.  The clock read is amortised
   over 64 steps — the hook itself is otherwise one branch. *)
exception Timed_out of float (* simulated seconds at abort *)

let deadline_observe ~deadline_ns =
  let k = ref 0 in
  fun time (_ : Expr.var -> float) ->
    incr k;
    if !k land 63 = 0 && Obs.now_ns () > deadline_ns then
      raise (Timed_out time)

let timeout_result ctx (p : Sampler.point) ~cached ~sim_time ~wall_s =
  Obs.Counter.incr c_timeouts;
  if Journal.enabled () then
    Journal.emit ~severity:Journal.Warn ~cat:"sweep" "point.timeout"
      [
        ("point", Journal.S p.Sampler.label);
        ("index", Journal.I p.Sampler.index);
        ("wall_s", Journal.F wall_s);
        ("sim_time", Journal.F sim_time);
      ];
  {
    (Point_result.failed ~signal:(Expr.var_name ctx.c_output) p Health.Timeout
       ~time:sim_time ~value:wall_s ~wall_s)
    with
    cached;
  }

let pruned_result ctx (p : Sampler.point) (bad : Amsvp_analysis.Absint.bad) =
  Obs.Counter.incr c_pruned;
  let value =
    match bad.Amsvp_analysis.Absint.b_kind with
    | `Nonfinite -> nan
    | `Amplitude ->
        Option.value ctx.c_spec.Spec.amplitude_limit ~default:nan
  in
  if Journal.enabled () then
    Journal.emit ~cat:"sweep" "point.pruned"
      [
        ("point", Journal.S p.Sampler.label);
        ("index", Journal.I p.Sampler.index);
        ( "reason",
          Journal.S
            (match bad.Amsvp_analysis.Absint.b_kind with
            | `Nonfinite -> "nan"
            | `Amplitude -> "amplitude") );
        ("step", Journal.I bad.Amsvp_analysis.Absint.b_step);
        ("sim_time", Journal.F bad.Amsvp_analysis.Absint.b_time);
      ];
  {
    (Point_result.failed ~signal:(Expr.var_name ctx.c_output) p Health.Pruned
       ~time:bad.Amsvp_analysis.Absint.b_time ~value ~wall_s:0.0)
    with
    cached = true;
  }

(* A point's program: the recorded plan replayed on its circuit
   ([true]), or the whole flow where the replay fails ([false]). *)
let program_for ctx circuit =
  match Abscache.rebind ctx.c_cache circuit with
  | Some program -> (program, true)
  | None ->
      let spec = ctx.c_spec in
      let rep =
        Flow.abstract_circuit
          ~name:(ctx.c_tc.Circuits.label ^ "_sweep")
          ~mode:spec.Spec.mode ~integration:spec.Spec.integration circuit
          ~outputs:[ ctx.c_output ] ~dt:ctx.c_dt
      in
      (rep.Flow.program, false)

(* Static screen of a prepared sweep: the absint value-range pass over
   the representative program (the probed circuit with its nominal
   parameter values). The serve daemon rejects a submit whose screen
   reports errors — guaranteed division by zero always is one; the
   possible-non-finite and amplitude-budget warnings become errors
   under [werror]. *)
let screen ?(werror = false) ctx =
  let module Diag = Amsvp_diag.Diag in
  let spec = ctx.c_spec in
  match program_for ctx ctx.c_probed with
  | exception _ -> []
  | program, _ ->
      Amsvp_analysis.Lint.absint_findings
        ?amplitude_budget:spec.Spec.amplitude_limit ~report_dead:false
        ~span_of_target:(fun _ -> None)
        program
      |> Diag.apply { Diag.werror; suppress = [] }

let prune_static ctx points =
  Prune.plan ~cache:ctx.c_cache ~probed:ctx.c_probed
    ~stimuli:ctx.c_stim_assoc ~t_stop:ctx.c_t_stop
    ?amplitude:ctx.c_spec.Spec.amplitude_limit points

let run_point ?timeout_s ctx (p : Sampler.point) =
  Obs.with_span ~cat:"sweep" ~args:[ ("point", p.Sampler.label) ] "sweep.point"
  @@ fun () ->
  let spec = ctx.c_spec in
  let timeout_s =
    match timeout_s with Some _ -> timeout_s | None -> spec.Spec.point_timeout
  in
  let t0 = Obs.now_ns () in
  let observe =
    Option.map
      (fun t -> deadline_observe ~deadline_ns:(t0 + int_of_float (t *. 1e9)))
      timeout_s
  in
  let circuit = Circuit.override ctx.c_probed p.Sampler.overrides in
  let program, cached = program_for ctx circuit in
  Obs.Counter.incr (if cached then c_cache_hits else c_cache_misses);
  match
    let runner =
      (* On a plan replay the bytecode template re-targets for free;
         cache misses (and shape drift) compile from scratch. *)
      let compiled =
        if cached then Abscache.compiled_for ctx.c_cache program else None
      in
      Sfprogram.Runner.create ?compiled program
    in
    let scratch = Lazy.force ctx.c_scratch in
    let sources =
      Array.of_list
        (List.map
           (fun n -> Sfprogram.Runner.Table (List.assoc n scratch.s_tables))
           program.Sfprogram.inputs)
    in
    let trace = scratch.s_trace in
    Sfprogram.Runner.run_into runner ~sources ~t_stop:ctx.c_t_stop ?observe
      trace;
    let reference =
      if not spec.reference then None
      else
        let fidelity =
          match spec.Spec.fidelity with Some f -> f | None -> `Paper
        in
        Some
          (Engine.spice_like ~substeps:1 ~iterations:3 ~fidelity ?observe
             circuit ~inputs:ctx.c_stim_assoc ~output:ctx.c_output ~dt:ctx.c_dt
             ~t_stop:ctx.c_t_stop)
    in
    (trace, reference)
  with
  | exception Timed_out sim_time ->
      let wall_s = float_of_int (Obs.now_ns () - t0) *. 1e-9 in
      Obs.Counter.incr c_points;
      Obs.Histogram.observe h_point_seconds wall_s;
      timeout_result ctx p ~cached ~sim_time ~wall_s
  | trace, reference ->
      let t_stop = ctx.c_t_stop in
      (* The trace is the shared scratch one: everything is read from
         it before this point returns. *)
      let times, values = Trace.buffers trace and n = Trace.length trace in
      let out_final = if n = 0 then 0.0 else values.(n - 1) in
      let out_rms =
        if n = 0 then 0.0
        else begin
          let sum_sq = ref 0.0 in
          for i = 0 to n - 1 do
            sum_sq := !sum_sq +. (values.(i) *. values.(i))
          done;
          sqrt (!sum_sq /. float_of_int n)
        end
      in
      let nrmse =
        match reference with
        | None -> None
        | Some r ->
            Some
              (Metrics.nrmse_traces ~reference:r.Engine.trace trace ~t0:0.0
                 ~dt:(t_stop /. 1000.0) ~n:999)
      in
      (* The recorded trace is replayed through a health monitor after
         the run: same verdict as a live probe would give, with zero
         cost on the stepping loop. With a reference engine on, the
         monitor also streams the NRMSE watchdog against the
         interpolated reference. *)
      let health =
        let config =
          {
            Health.default_config with
            nrmse_budget = spec.nrmse_budget;
            amplitude_limit = spec.amplitude_limit;
          }
        in
        let mon = Health.create ~config (Expr.var_name ctx.c_output) in
        let reference =
          Option.map
            (fun r ->
              Array.init n (fun i -> Trace.sample_at r.Engine.trace times.(i)))
            reference
        in
        Health.replay mon ~times ~values ?reference n;
        Health.verdict mon
      in
      let wall_s = float_of_int (Obs.now_ns () - t0) *. 1e-9 in
      Obs.Counter.incr c_points;
      Obs.Histogram.observe h_point_seconds wall_s;
      if Journal.enabled () then
        (* One event per executed point, recorded by the process that
           ran it; a worker ships it to the parent's journal. *)
        Journal.emit ~cat:"sweep" "point"
          [
            ("point", Journal.S p.Sampler.label);
            ("index", Journal.I p.Sampler.index);
            ("cached", Journal.B cached);
            ("wall_s", Journal.F wall_s);
            ("healthy", Journal.B health.Health.v_healthy);
            ("out_final", Journal.F out_final);
          ];
      { point = p; out_final; out_rms; nrmse; health; cached; wall_s }

let summarize ctx (results : point_result array) ~total_s =
  let series f =
    Stats.of_array
      (Array.of_list (List.filter_map f (Array.to_list results)))
  in
  let hits =
    Array.fold_left (fun n r -> if r.cached then n + 1 else n) 0 results
  in
  {
    spec = ctx.c_spec;
    label = ctx.c_tc.Circuits.label;
    jobs = ctx.c_jobs;
    points = results;
    nrmse_stats = series (fun r -> r.nrmse);
    wall_stats = series (fun r -> Some r.wall_s);
    rms_stats = series (fun r -> Some r.out_rms);
    unhealthy =
      Array.fold_left
        (fun n r -> if r.health.Health.v_healthy then n else n + 1)
        0 results;
    pruned =
      Array.fold_left
        (fun n r ->
          if
            List.exists
              (fun (i : Health.issue) -> i.Health.kind = Health.Pruned)
              r.health.Health.v_issues
          then n + 1
          else n)
        0 results;
    cache_hits = hits;
    cache_misses = Array.length results - hits;
    total_s;
  }

(* Run [pending] and hand each result and its line to [on_result] in
   this process, calling [on_batch] once what arrived together is
   delivered: inline when [jobs] is 1 (one point per batch), else on a
   pool of [jobs] worker processes forked for this call and closed when
   it returns. *)
let dispatch ctx ~on_result ~on_batch pending =
  let work p = run_point ctx p in
  if ctx.c_jobs = 1 then
    Array.iter
      (fun p ->
        let r = Pool.guard work p in
        on_result ~line:(Point_result.to_line r) r;
        on_batch ())
      pending
  else begin
    let pool =
      Pool.create ~workers:ctx.c_jobs ?timeout_s:ctx.c_spec.Spec.point_timeout
        ~points:ctx.c_points
        (fun ~retry:_ p -> work p)
    in
    Fun.protect
      ~finally:(fun () -> Pool.close pool)
      (fun () ->
        ignore
          (Pool.run pool ~signal:(Expr.var_name ctx.c_output) ~on_result
             ~on_batch pending))
  end

let session ?checkpoint ?(prune = false) ?on_open ?on_point ?execute ctx =
  let spec = ctx.c_spec and circuit = ctx.c_tc.Circuits.label in
  let points = Array.length ctx.c_points in
  let opened =
    match checkpoint with
    | None -> Ok ([], None)
    | Some (`Fresh path) ->
        Ok ([], Some (Checkpoint.create ~path spec ~circuit ~points))
    | Some (`Resume path) ->
        Result.map
          (fun (recovered, w) -> (recovered, Some w))
          (Checkpoint.resume ~path spec ~circuit ~points)
  in
  Result.map
    (fun (recovered, writer) ->
      Fun.protect ~finally:(fun () -> Option.iter Checkpoint.close writer)
      @@ fun () ->
      let slots = Array.make points None in
      let delivered () = List.filter_map Fun.id (Array.to_list slots) in
      let pending () =
        Array.of_list
          (List.filter
             (fun (p : Sampler.point) ->
               Option.is_none slots.(p.Sampler.index))
             (Array.to_list ctx.c_points))
      in
      let fill (r : point_result) = slots.(r.point.Sampler.index) <- Some r in
      let emit ~line r = Option.iter (fun f -> f ~line r) on_point in
      List.iter fill recovered;
      (* Recovered points stream first, so a consumer sees the full
         result set in one session. *)
      let recovered = delivered () in
      Option.iter (fun f -> f (List.length recovered)) on_open;
      List.iter (fun r -> emit ~line:(Point_result.to_line r) r) recovered;
      (* The line is appended as it came (a worker's bytes, or the
         inline encoding) and flushed once per delivered batch. *)
      let finish ~line r =
        fill r;
        Option.iter (fun w -> Checkpoint.append w line) writer;
        emit ~line r
      in
      let flush () = Option.iter Checkpoint.flush writer in
      (* Pre-flight static pruning: points the abstract interpreter
         proves unhealthy are answered without simulation (their
         [Pruned] results are checkpointed and streamed like any other)
         and removed from the dispatch set. *)
      if prune then begin
        List.iter
          (fun (d : Prune.decision) ->
            let r = pruned_result ctx d.Prune.d_point d.Prune.d_bad in
            finish ~line:(Point_result.to_line r) r)
          (prune_static ctx (pending ()));
        flush ()
      end;
      let execute = Option.value execute ~default:(dispatch ctx) in
      let t0 = Obs.now_ns () in
      execute ~on_result:finish ~on_batch:flush (pending ());
      let total_s = float_of_int (Obs.now_ns () - t0) *. 1e-9 in
      summarize ctx (Array.of_list (delivered ())) ~total_s)
    opened

let run ?jobs ?prune ?on_point (spec : Spec.t) (tc : Circuits.testcase) =
  let ctx = prepare ?jobs spec tc in
  let on_point = Option.map (fun f ~line:_ r -> f r) on_point in
  match session ?prune ?on_point ctx with
  | Ok summary -> summary
  | Error m -> invalid_arg m (* only a checkpoint can be refused *)
