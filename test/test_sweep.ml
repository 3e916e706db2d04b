(* Tests for the sweep engine: spec round-trip, deterministic sampling,
   the worker-process pool (crash re-dispatch, kill deadlines,
   telemetry), summary statistics, the plan-replay abstraction cache and
   end-to-end sweep determinism. *)

module Circuits = Amsvp_netlist.Circuits
module Circuit = Amsvp_netlist.Circuit
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Spec = Amsvp_sweep.Spec
module Sampler = Amsvp_sweep.Sampler
module Pool = Amsvp_sweep.Pool
module Point_result = Amsvp_sweep.Point_result
module Journal = Amsvp_obs.Journal
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

(* Pool: the worker-process executor behind [sweep --jobs N] and the
   serve daemon. *)

(* A synthetic work function: no simulation, so pool mechanics are the
   only thing under test. [wall_s] smuggles the retry count out. *)
let mk ?(retry = 0) (p : Sampler.point) =
  {
    Runner.point = p;
    out_final = float_of_int p.Sampler.index;
    out_rms = 0.0;
    nrmse = None;
    health = { Health.v_signal = "t"; v_healthy = true; v_issues = [] };
    cached = true;
    wall_s = float_of_int retry;
  }

let pool_points n =
  Array.init n (fun i ->
      { Sampler.index = i; label = Printf.sprintf "p%04d" i; overrides = [] })

(* A one-shot pool: create, run, close. Every pool test draws its
   points from this table. *)
let with_pool ~workers ?timeout_s f k =
  let pool = Pool.create ~workers ?timeout_s ~points:(pool_points 400) f in
  Fun.protect ~finally:(fun () -> Pool.close pool) (fun () -> k pool)

(* Every point of a run larger than the pool executes exactly once:
   each execution appends its index to a shared file, which the
   workers inherit opened for appending, so a lost or duplicated
   dispatch shows as a wrong count. *)
let test_pool_exactly_once () =
  let n = 400 in
  let path = Filename.temp_file "amsvp_pool_hits" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o600 in
  let results =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        with_pool ~workers:4
          (fun ~retry p ->
            let line = Printf.sprintf "%d\n" p.Sampler.index in
            ignore (Unix.write_substring fd line 0 (String.length line));
            mk ~retry p)
          (fun pool -> Pool.run pool (pool_points n)))
  in
  let hits = Array.make n 0 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun l ->
         if l <> "" then
           let i = int_of_string l in
           hits.(i) <- hits.(i) + 1);
  Sys.remove path;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "hit %d" i) 1 c)
    hits;
  Alcotest.(check int) "all results" n (Array.length results);
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "slot %d missing" i
      | Some (r : Runner.point_result) ->
          Alcotest.(check int) "in order" i r.Runner.point.Sampler.index)
    results

let test_pool_slot_order () =
  let points = pool_points 9 in
  let results =
    with_pool ~workers:3 (fun ~retry p -> mk ~retry p) (fun pool ->
        Pool.run pool points)
  in
  Alcotest.(check int) "all slots" 9 (Array.length results);
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "slot %d missing" i
      | Some (r : Runner.point_result) ->
          Alcotest.(check int) "slot order" i r.Runner.point.Sampler.index;
          Alcotest.(check (float 0.0)) "value" (float_of_int i)
            r.Runner.out_final)
    results

let test_pool_crash_redispatch () =
  let points = pool_points 6 in
  let tally = Pool.make_tally () in
  let results =
    with_pool ~workers:2
      (fun ~retry p ->
        if p.Sampler.index = 2 && retry = 0 then Unix._exit 9 else mk ~retry p)
      (fun pool -> Pool.run pool ~retries:1 ~tally points)
  in
  Alcotest.(check int) "one re-dispatch" 1 tally.Pool.t_redispatched;
  Alcotest.(check int) "replacement spawned" 3 tally.Pool.t_spawned;
  Alcotest.(check int) "no exhausted point" 0 tally.Pool.t_crashed;
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "slot %d missing" i
      | Some (r : Runner.point_result) ->
          Alcotest.(check bool) "healthy" true
            r.Runner.health.Health.v_healthy;
          if i = 2 then
            Alcotest.(check (float 0.0)) "ran on retry 1" 1.0 r.Runner.wall_s)
    results

let test_pool_crash_exhausted () =
  let points = pool_points 4 in
  let tally = Pool.make_tally () in
  let results =
    with_pool ~workers:2
      (fun ~retry p ->
        ignore retry;
        if p.Sampler.index = 1 then Unix._exit 9 else mk p)
      (fun pool ->
        Pool.run pool ~retries:1 ~signal:"V(out,gnd)" ~tally points)
  in
  Alcotest.(check int) "retries exhausted once" 1 tally.Pool.t_crashed;
  Alcotest.(check int) "one re-dispatch before giving up" 1
    tally.Pool.t_redispatched;
  match results.(1) with
  | None -> Alcotest.fail "crashed slot missing"
  | Some r -> (
      Alcotest.(check bool) "unhealthy" false r.Runner.health.Health.v_healthy;
      Alcotest.(check string) "signal" "V(out,gnd)"
        r.Runner.health.Health.v_signal;
      match r.Runner.health.Health.v_issues with
      | [ { Health.kind = Health.Crashed; _ } ] -> ()
      | _ -> Alcotest.fail "expected a crashed verdict")

let test_pool_timeout_kill () =
  let points = pool_points 3 in
  let tally = Pool.make_tally () in
  let results =
    with_pool ~workers:2 ~timeout_s:0.05
      (fun ~retry p ->
        ignore retry;
        if p.Sampler.index = 0 then Unix.sleepf 30.0;
        mk p)
      (fun pool -> Pool.run pool ~tally points)
  in
  Alcotest.(check int) "kill counted" 1 tally.Pool.t_timeouts;
  (match results.(0) with
  | Some r -> (
      Alcotest.(check bool) "unhealthy" false r.Runner.health.Health.v_healthy;
      match r.Runner.health.Health.v_issues with
      | [ { Health.kind = Health.Timeout; _ } ] -> ()
      | _ -> Alcotest.fail "expected a timeout verdict")
  | None -> Alcotest.fail "timed-out slot missing");
  (match results.(1) with
  | Some r -> Alcotest.(check bool) "others fine" true r.Runner.health.Health.v_healthy
  | None -> Alcotest.fail "slot 1 missing");
  (* Point 2 was queued behind the hung point 0 on its worker; it goes
     back to pending when that worker is killed, and still runs. *)
  match results.(2) with
  | Some r -> Alcotest.(check bool) "queued point ran" true r.Runner.health.Health.v_healthy
  | None -> Alcotest.fail "slot 2 missing"

(* The journal's ["task.begin"] events: one per task a worker started. *)
let task_begins events =
  List.filter (fun e -> e.Journal.name = "task.begin") events

let payload_int key (e : Journal.event) =
  match List.assoc_opt key e.Journal.payload with
  | Some (Journal.I i) -> Some i
  | _ -> None

let with_journal k =
  Journal.enable ();
  Journal.reset ();
  Fun.protect
    ~finally:(fun () ->
      Journal.reset ();
      Journal.disable ())
    k

(* One worker: point 0 is its head and point 1 is queued behind it when
   point 0 crashes. Only the head is charged a retry; point 1 never
   started, so it runs exactly once, on its first attempt. *)
let test_pool_queued_not_charged () =
  with_journal @@ fun () ->
  let points = pool_points 3 in
  let tally = Pool.make_tally () in
  let delivered = Array.make 3 0 in
  let results =
    with_pool ~workers:1
      (fun ~retry p ->
        if p.Sampler.index = 0 && retry = 0 then Unix._exit 9
        else mk ~retry p)
      (fun pool ->
        Pool.run pool ~retries:1 ~tally
          ~on_result:(fun ~line:_ r ->
            let i = r.Runner.point.Sampler.index in
            delivered.(i) <- delivered.(i) + 1)
          points)
  in
  Alcotest.(check int) "one re-dispatch" 1 tally.Pool.t_redispatched;
  Alcotest.(check int) "no exhausted point" 0 tally.Pool.t_crashed;
  Alcotest.(check (array int)) "each delivered once" [| 1; 1; 1 |] delivered;
  (match results.(0) with
  | Some r -> Alcotest.(check (float 0.0)) "head ran on retry 1" 1.0 r.Runner.wall_s
  | None -> Alcotest.fail "slot 0 missing");
  (match results.(1) with
  | Some r ->
      Alcotest.(check (float 0.0)) "queued point on retry 0" 0.0 r.Runner.wall_s
  | None -> Alcotest.fail "slot 1 missing");
  let starts =
    List.filter
      (fun e -> payload_int "index" e = Some 1)
      (task_begins (Journal.events ()))
  in
  Alcotest.(check int) "queued point started once" 1 (List.length starts);
  Alcotest.(check (option int)) "with retry 0" (Some 0)
    (payload_int "retry" (List.hd starts))

(* The queued point's kill deadline starts when the head completes. Its
   deadline is 1.5 * 0.2 + 0.5 = 0.8 s: point 1 ends 1.0 s after it was
   written, but only 0.6 s after it became the head. *)
let test_pool_queued_deadline () =
  let points = pool_points 2 in
  let tally = Pool.make_tally () in
  let results =
    with_pool ~workers:1 ~timeout_s:0.2
      (fun ~retry p ->
        Unix.sleepf (if p.Sampler.index = 0 then 0.4 else 0.6);
        mk ~retry p)
      (fun pool -> Pool.run pool ~tally points)
  in
  Alcotest.(check int) "no kill" 0 tally.Pool.t_timeouts;
  Array.iteri
    (fun i r ->
      match r with
      | Some (r : Runner.point_result) ->
          Alcotest.(check bool) "healthy" true r.Runner.health.Health.v_healthy
      | None -> Alcotest.failf "slot %d missing" i)
    results

(* With the journal on, each child tags itself "w<slot>:<pid>" and
   ships its events back over the result pipe — so after [run] the
   parent's merged journal must contain events from every worker
   process that handled a task. A second run on the same pool forks
   nothing and tags its tasks with its own request id. *)
let c_pool_tasks = Obs.Counter.make "test_serve_pool_tasks_total"

let test_pool_telemetry_ship () =
  with_journal @@ fun () ->
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.reset ();
      Obs.disable ())
  @@ fun () ->
  let tally = Pool.make_tally () in
  let points = pool_points 8 in
  let work ~retry p =
    ignore retry;
    Obs.with_span "test.pool_task" @@ fun () ->
    Unix.sleepf 0.01;
    Obs.Counter.incr c_pool_tasks;
    mk p
  in
  (* The parent's own count: a worker inherits it at fork and must not
     ship it back. *)
  Obs.Counter.add c_pool_tasks 100;
  with_pool ~workers:2 work @@ fun pool ->
  List.iter
    (fun id ->
      let results = Pool.run pool ~request_id:id ~tally points in
      Array.iteri
        (fun i r -> if r = None then Alcotest.failf "slot %d missing" i)
        results)
    [ 7; 8 ];
  let events = Journal.events () in
  let origins =
    List.filter_map
      (fun e ->
        let o = e.Journal.origin in
        if String.length o > 0 && o.[0] = 'w' then Some o else None)
      events
    |> List.sort_uniq Stdlib.compare
  in
  Alcotest.(check int) "two worker origins" 2 (List.length origins);
  let begins = task_begins events in
  Alcotest.(check int) "every task journaled its begin" 16
    (List.length begins);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "task.begin events of request %d" id)
        8
        (List.length (List.filter (fun e -> payload_int "id" e = Some id) begins)))
    [ 7; 8 ];
  Alcotest.(check int) "no torn frames" 0 tally.Pool.t_torn;
  Alcotest.(check int) "spawned once for both runs" 2 tally.Pool.t_spawned;
  (* Long-lived workers ship each span and each counter increment
     exactly once across both runs. *)
  Alcotest.(check int) "one worker span per task" 16
    (List.length
       (List.filter
          (fun (sp : Obs.span) ->
            sp.Obs.name = "test.pool_task" && String.length sp.Obs.proc > 0
            && sp.Obs.proc.[0] = 'w')
          (Obs.spans ())));
  Alcotest.(check int) "counter deltas summed once" 116
    (Obs.Counter.value c_pool_tasks)

(* One worker holds the head and one queued point when [should_stop]
   turns true, so at most one point past the stopping one is delivered,
   and every delivered point went through [on_result]. *)
let test_pool_drain () =
  let points = pool_points 8 in
  let served = ref [] in
  let results =
    with_pool ~workers:1
      (fun ~retry p ->
        ignore retry;
        mk p)
      (fun pool ->
        Pool.run pool
          ~on_result:(fun ~line:_ r ->
            served := r.Runner.point.Sampler.index :: !served)
          ~should_stop:(fun () -> List.length !served >= 2)
          points)
  in
  let some =
    Array.to_list results
    |> List.filter_map (Option.map (fun (r : Runner.point_result) ->
           r.Runner.point.Sampler.index))
  in
  Alcotest.(check bool)
    (Printf.sprintf "2 or 3 delivered (got %d)" (List.length some))
    true
    (List.length some >= 2 && List.length some <= 3);
  Alcotest.(check (list int)) "every delivered point passed on_result" some
    (List.sort compare !served);
  (* Stopping right after the first dispatch: the worker already holds
     its head and one queued point, and both are delivered. *)
  let polls = ref 0 in
  let results =
    with_pool ~workers:1
      (fun ~retry p ->
        ignore retry;
        mk p)
      (fun pool ->
        Pool.run pool
          ~should_stop:(fun () ->
            incr polls;
            !polls > 1)
          points)
  in
  Alcotest.(check (list bool)) "head and queued point delivered"
    [ true; true; false; false; false; false; false; false ]
    (Array.to_list (Array.map Option.is_some results))


(* A raising work function gets the same crashed verdict inline
   ([Pool.guard], as [Runner.run ~jobs:1] runs it) and in a worker. *)
let test_pool_exception () =
  let work (p : Sampler.point) =
    if p.Sampler.index = 1 then failwith "boom" else mk p
  in
  let points = pool_points 3 in
  let inline = Array.map (Pool.guard work) points in
  let forked =
    with_pool ~workers:2 (fun ~retry:_ p -> work p) (fun pool ->
        Pool.run pool points)
  in
  Array.iteri
    (fun i r ->
      match forked.(i) with
      | Some f ->
          Alcotest.(check string) "same result inline and forked"
            (Point_result.to_line r) (Point_result.to_line f)
      | None -> Alcotest.failf "slot %d missing" i)
    inline;
  (match inline.(1).Runner.health.Health.v_issues with
  | [ { Health.kind = Health.Crashed; _ } ] -> ()
  | _ -> Alcotest.fail "expected a crashed verdict");
  Alcotest.(check string) "signal names the exception"
    (Printexc.to_string (Failure "boom"))
    inline.(1).Runner.health.Health.v_signal;
  match Pool.create ~workers:0 ~points (fun ~retry:_ p -> mk p) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Counter increments made in two workers at once reach the parent's
   registry exactly, once each. *)
let c_contention = Obs.Counter.make "test_sweep_contention_total"

let test_pool_counters_under_contention () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let before = Obs.Counter.value c_contention in
  let results =
    with_pool ~workers:2
      (fun ~retry:_ p ->
        for _ = 1 to 1000 do
          Obs.Counter.incr c_contention
        done;
        mk p)
      (fun pool -> Pool.run pool (pool_points 8))
  in
  Alcotest.(check int) "all slots" 8
    (Array.length (Array.of_list (List.filter_map Fun.id (Array.to_list results))));
  Alcotest.(check int) "8000 increments" (before + 8000)
    (Obs.Counter.value c_contention)

(* Batched dispatch must change nothing a point reports. Points carry
   mixed costs — their work function reports the cost as [wall_s],
   which is what the pool sizes its tasks from, and sleeps through the
   long ones — so runs mix single-point tasks with batches of varying
   size. Every point is delivered exactly once, with the bytes
   [on_result] forwards equal to its result's line, and equals the
   inline result apart from [wall_s]. *)
let prop_pool_batched_equals_inline =
  let costs = [| 0.0; 2e-5; 1e-4; 4e-4; 3e-3 |] in
  QCheck.Test.make ~name:"batched pool equals inline dispatch" ~count:25
    QCheck.(
      pair (int_range 1 3)
        (list_of_size (Gen.int_range 1 40)
           (int_bound (Array.length costs - 1))))
    (fun (workers, kinds) ->
      let kinds = Array.of_list kinds in
      let n = Array.length kinds in
      let work ~retry (p : Sampler.point) =
        let cost = costs.(kinds.(p.Sampler.index)) in
        if cost > 1e-3 then Unix.sleepf cost;
        { (mk ~retry p) with Runner.out_rms = cost; wall_s = cost }
      in
      let points = pool_points n in
      let delivered = Array.make n 0 and forwarded = ref true in
      let results =
        with_pool ~workers work (fun pool ->
            Pool.run pool
              ~on_result:(fun ~line r ->
                let i = r.Runner.point.Sampler.index in
                delivered.(i) <- delivered.(i) + 1;
                if line <> Point_result.to_line r then forwarded := false)
              points)
      in
      let values (r : Runner.point_result) =
        Point_result.to_line { r with Runner.wall_s = 0.0 }
      in
      !forwarded
      && Array.for_all (( = ) 1) delivered
      && Array.for_all2
           (fun p r ->
             match r with
             | Some r -> values r = values (Pool.guard (work ~retry:0) p)
             | None -> false)
           points results)

(* Batched against single-point dispatch of the same failures. The
   pool sizes its tasks from the [wall_s] results report: 0 makes every
   task after the first three singles take an even share of what is
   left, 1 s keeps every task at one point. On a pool of one worker
   over 11 points, with points 0 and 1 taking 20 ms so that their
   results come back one at a time, the tasks are [0], [1], [2], then
   [3; 4; 5; 6]. [out_rms] carries the attempt a point ran on. *)
let dispatch_sized ?timeout_s ~wall_s work =
  with_journal @@ fun () ->
  let tally = Pool.make_tally () in
  let work ~retry (p : Sampler.point) =
    if p.Sampler.index < 2 then Unix.sleepf 0.02;
    { (work ~retry p) with Runner.out_rms = float_of_int retry; wall_s }
  in
  let results =
    with_pool ~workers:1 ?timeout_s work (fun pool ->
        Pool.run pool ~retries:1 ~signal:"V(out,gnd)" ~tally (pool_points 11))
  in
  let verdict = function
    | None -> "missing"
    | Some (r : Runner.point_result) ->
        let h = r.Runner.health in
        if h.Health.v_healthy then
          Point_result.to_line { r with Runner.wall_s = 0.0 }
        else
          String.concat ","
            (List.map
               (fun (i : Health.issue) -> Health.kind_label i.Health.kind)
               h.Health.v_issues)
  in
  let splits =
    List.filter_map
      (fun e ->
        if e.Journal.name = "shard.split" then payload_int "points" e
        else None)
      (Journal.events ())
  in
  (Array.map verdict results, tally, splits)

(* A worker SIGKILLed after the first result of the 4-point batch: that
   result stands (point 3 takes 20 ms, past the child's mid-task flush),
   the other 3 go back uncharged and run alone, and point 4, which
   kills its worker on its first attempt, is charged one re-dispatch
   exactly as under single-point dispatch. *)
let test_pool_batch_death () =
  let work ~retry (p : Sampler.point) =
    if p.Sampler.index = 3 then Unix.sleepf 0.02;
    if p.Sampler.index = 4 && retry = 0 then
      Unix.kill (Unix.getpid ()) Sys.sigkill;
    mk p
  in
  let batched, bt, splits = dispatch_sized ~wall_s:0.0 work in
  let single, st, single_splits = dispatch_sized ~wall_s:1.0 work in
  Alcotest.(check (list int)) "the other 3 went back" [ 3 ] splits;
  Alcotest.(check (list int)) "no batch under single dispatch" []
    single_splits;
  Alcotest.(check (array string)) "same verdicts" single batched;
  Alcotest.(check int) "one charged re-dispatch" 1 bt.Pool.t_redispatched;
  Alcotest.(check int) "as under single dispatch" st.Pool.t_redispatched
    bt.Pool.t_redispatched;
  Alcotest.(check int) "nothing exhausted" 0 bt.Pool.t_crashed

(* Point 4 hangs outside the cooperative timeout inside the 4-point
   batch: the batch's kill deadline (one allowance per point) expires,
   the batch goes back uncharged, and point 4, alone, ends with the same
   [Timeout] verdict it gets under single-point dispatch. *)
let test_pool_batch_hang () =
  let work ~retry:_ (p : Sampler.point) =
    if p.Sampler.index = 4 then Unix.sleepf 30.0;
    mk p
  in
  let batched, bt, splits = dispatch_sized ~timeout_s:0.05 ~wall_s:0.0 work in
  let single, st, _ = dispatch_sized ~timeout_s:0.05 ~wall_s:1.0 work in
  Alcotest.(check int) "the batch went back once" 1 (List.length splits);
  Alcotest.(check (array string)) "same verdicts" single batched;
  Alcotest.(check string) "hung point timed out" "timeout" batched.(4);
  Alcotest.(check int) "one timeout verdict" 1 bt.Pool.t_timeouts;
  Alcotest.(check int) "as under single dispatch" st.Pool.t_timeouts
    bt.Pool.t_timeouts

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

(* [Runner.run ~jobs:1] runs every point in this process: no worker is
   forked, and [on_point] sees each point as it finishes. *)
let test_pool_single_job_inline () =
  let spawned = Obs.Counter.make "amsvp_pool_spawned_total" in
  let before = Obs.Counter.value spawned in
  let seen = ref 0 in
  let s =
    Runner.run ~jobs:1 ~on_point:(fun _ -> incr seen) (small_spec 1)
      (Option.get (Circuits.by_name "RECT"))
  in
  Alcotest.(check int) "every point ran" 7 (Array.length s.Runner.points);
  Alcotest.(check int) "on_point once per point" 7 !seen;
  Alcotest.(check int) "nothing forked" before (Obs.Counter.value spawned)

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

(* An output over a node the circuit lacks is the flow's AMS030
   finding, raised while the sweep is prepared — the coded error the
   CLI prints and the daemon's [rejected] reply carry. *)
let test_unknown_output_rejected () =
  let tc = Option.get (Circuits.by_name "RECT") in
  let spec =
    {
      Spec.default with
      Spec.name = "zig";
      output = Some "V(zig,gnd)";
      t_stop = Some 1e-4;
      axes = [ { Spec.param = "r1.r"; range = Spec.Values [ 1e3; 2e3 ] } ];
    }
  in
  match Runner.prepare spec tc with
  | _ -> Alcotest.fail "expected Diag.Rejected"
  | exception Diag.Rejected f ->
      Alcotest.(check string) "code" "AMS030" f.Diag.code;
      Alcotest.(check string) "message"
        "Flow: output V(zig,gnd) refers to unknown nodes" f.Diag.message

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

(* Golden per-point results of examples/rect_tolerance.sweep, with the
   reference on and off: every value field, printed %.17g, must match
   the recorded fixture at --jobs 1, 2 and 3. *)
let golden_line (r : Runner.point_result) =
  let num = Printf.sprintf "%.17g" in
  let health =
    if r.Runner.health.Health.v_healthy then "ok"
    else
      String.concat ";"
        (List.map
           (fun (i : Health.issue) ->
             Printf.sprintf "%s@%s=%s"
               (Health.kind_label i.Health.kind)
               (num i.Health.time) (num i.Health.value))
           r.Runner.health.Health.v_issues)
  in
  Printf.sprintf "%d %s %s %s %s" r.Runner.point.Sampler.index
    (num r.Runner.out_final) (num r.Runner.out_rms)
    (match r.Runner.nrmse with Some e -> num e | None -> "-")
    health

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_golden_rect_tolerance ~reference () =
  let spec =
    match
      Spec.of_string
        (In_channel.with_open_text "../examples/rect_tolerance.sweep"
           In_channel.input_all)
    with
    | Ok s -> { s with Spec.reference }
    | Error m -> Alcotest.failf "example spec: %s" m
  in
  let tc = Option.get (Circuits.by_name "RECT") in
  let expected =
    read_lines
      (Printf.sprintf "fixtures/rect_tolerance_ref_%s.golden"
         (if reference then "on" else "off"))
  in
  List.iter
    (fun jobs ->
      let s = Runner.run ~jobs spec tc in
      Alcotest.(check (list string))
        (Printf.sprintf "--jobs %d matches the fixture" jobs)
        expected
        (Array.to_list (Array.map golden_line s.Runner.points)))
    [ 1; 2; 3 ]

(* A point aborted by [point_timeout] leaves the signal-flow counters at
   the steps it took: the deadline is checked on every 64th observe
   call, the first at t = 0, so an already-expired budget stops the run
   after step 63. *)
let test_timeout_counts_steps_taken () =
  let spec = { (small_spec 1) with Spec.reference = false } in
  let tc = Option.get (Circuits.by_name "RECT") in
  let ctx = Runner.prepare spec tc in
  let p = (Runner.ctx_points ctx).(0) in
  let ticks = Obs.Counter.make "amsvp_sf_ticks_total"
  and ops = Obs.Counter.make "amsvp_sf_ops_total" in
  let counted f =
    let t0 = Obs.Counter.value ticks and o0 = Obs.Counter.value ops in
    let r = f () in
    (r, Obs.Counter.value ticks - t0, Obs.Counter.value ops - o0)
  in
  let full, full_ticks, full_ops = counted (fun () -> Runner.run_point ctx p) in
  Alcotest.(check bool) "full run healthy" true full.Runner.health.Health.v_healthy;
  let nsteps =
    int_of_float
      (Float.round
         (Option.get spec.Spec.t_stop
         /. Option.value spec.Spec.dt ~default:Runner.default_dt))
  in
  Alcotest.(check int) "ticks = nsteps" nsteps full_ticks;
  Alcotest.(check int) "ops a whole number per tick" 0 (full_ops mod full_ticks);
  let live = full_ops / full_ticks in
  let aborted, ticks, ops =
    counted (fun () -> Runner.run_point ~timeout_s:1e-9 ctx p)
  in
  (match aborted.Runner.health.Health.v_issues with
  | [ { Health.kind = Health.Timeout; _ } ] -> ()
  | _ -> Alcotest.fail "expected a timeout verdict");
  Alcotest.(check int) "ticks = steps taken" 63 ticks;
  Alcotest.(check int) "ops = steps taken x live" (63 * live) ops;
  (* The next point records into the same scratch trace from scratch. *)
  let again = Runner.run_point ctx p in
  Alcotest.(check bool) "rerun bit-identical" true
    (Float.equal full.Runner.out_final again.Runner.out_final
    && Float.equal full.Runner.out_rms again.Runner.out_rms)

(* A shape-drifting point: with [d1.g_off = 0] the replayed program
   drops the diode's off-state term, so it no longer has the shape of
   the runner the earlier points rebind. That point runs on a runner of
   its own, exactly as a one-point run of it does; the point after it
   still rebinds the kept runner; and the result lines (wall clock
   aside) do not depend on the number of jobs. *)
let result_lines (s : Runner.summary) =
  Array.to_list
    (Array.map
       (fun (r : Runner.point_result) ->
         Point_result.to_line { r with Runner.wall_s = 0.0 })
       s.Runner.points)

let test_shape_drift_point () =
  let tc = Option.get (Circuits.by_name "RECT") in
  let drift = { Spec.corner_name = "drift"; binds = [ ("d1.g_off", 0.0) ] } in
  let spec jobs =
    let s = { (small_spec jobs) with Spec.reference = false } in
    { s with Spec.corners = drift :: s.Spec.corners }
  in
  let lines = result_lines in
  let compiled = Obs.Counter.make "amsvp_sf_compiled_programs_total"
  and rebinds = Obs.Counter.make "amsvp_sf_compile_rebinds_total" in
  let c0 = Obs.Counter.value compiled and r0 = Obs.Counter.value rebinds in
  let s1 = Runner.run (spec 1) tc in
  let n = Array.length s1.Runner.points in
  Alcotest.(check int) "8 points" 8 n;
  Alcotest.(check int) "every point replays the plan" n s1.Runner.cache_hits;
  Alcotest.(check int) "compiled: the kept runner and the drifted point" 2
    (Obs.Counter.value compiled - c0);
  Alcotest.(check int) "every other point rebinds" (n - 2)
    (Obs.Counter.value rebinds - r0);
  let at = s1.Runner.points.(6) in
  Alcotest.(check string) "the drifted point" "drift" at.Runner.point.Sampler.label;
  let alone =
    Runner.run
      {
        (spec 1) with
        Spec.axes =
          [ { Spec.param = "d1.g_off"; range = Spec.Values [ 0.0 ] } ];
        corners = [];
      }
      tc
  in
  Alcotest.(check int) "one point" 1 (Array.length alone.Runner.points);
  let r = alone.Runner.points.(0) in
  Alcotest.(check string) "= a one-point run"
    (Point_result.to_line { r with Runner.point = at.Runner.point; wall_s = 0.0 })
    (List.nth (lines s1) 6);
  Alcotest.(check (list string)) "--jobs 1 = --jobs 2" (lines s1)
    (lines (Runner.run (spec 2) tc))

(* A shape-drifted first point: the process keeps a runner per shape,
   so the nominal-shaped points after it compile one runner and rebind
   it, rather than compiling one each. *)
let test_shape_drift_first_point () =
  let tc = Option.get (Circuits.by_name "RECT") in
  let spec jobs =
    {
      (small_spec jobs) with
      Spec.reference = false;
      axes =
        [
          {
            Spec.param = "d1.g_off";
            range = Spec.Values [ 0.0; 1e-6; 2e-6; 3e-6 ];
          };
        ];
      corners = [];
    }
  in
  let compiled = Obs.Counter.make "amsvp_sf_compiled_programs_total"
  and rebinds = Obs.Counter.make "amsvp_sf_compile_rebinds_total" in
  let c0 = Obs.Counter.value compiled and r0 = Obs.Counter.value rebinds in
  let s1 = Runner.run (spec 1) tc in
  Alcotest.(check int) "4 points" 4 (Array.length s1.Runner.points);
  Alcotest.(check int) "every point replays the plan" 4 s1.Runner.cache_hits;
  Alcotest.(check int) "compiled: one runner per shape" 2
    (Obs.Counter.value compiled - c0);
  Alcotest.(check int) "the later nominal-shaped points rebind" 2
    (Obs.Counter.value rebinds - r0);
  Alcotest.(check (list string)) "--jobs 1 = --jobs 2" (result_lines s1)
    (result_lines (Runner.run (spec 2) tc))

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
          Alcotest.test_case "every slot filled in order" `Quick
            test_pool_slot_order;
          Alcotest.test_case "single job inline" `Quick
            test_pool_single_job_inline;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "counters under contention" `Quick
            test_pool_counters_under_contention;
          Alcotest.test_case "crash re-dispatch" `Quick
            test_pool_crash_redispatch;
          Alcotest.test_case "crash exhausted" `Quick test_pool_crash_exhausted;
          Alcotest.test_case "timeout kill" `Quick test_pool_timeout_kill;
          Alcotest.test_case "drain stops dispatch" `Quick test_pool_drain;
          Alcotest.test_case "queued point not charged" `Quick
            test_pool_queued_not_charged;
          Alcotest.test_case "queued deadline starts at head" `Quick
            test_pool_queued_deadline;
          Alcotest.test_case "workers ship telemetry" `Quick
            test_pool_telemetry_ship;
          QCheck_alcotest.to_alcotest prop_pool_batched_equals_inline;
          Alcotest.test_case "batch death returns the rest uncharged" `Quick
            test_pool_batch_death;
          Alcotest.test_case "hung point in a batch times out alone" `Quick
            test_pool_batch_hang;
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
          Alcotest.test_case "unknown output rejected with AMS030" `Quick
            test_unknown_output_rejected;
          Alcotest.test_case "golden reference on" `Quick
            (test_golden_rect_tolerance ~reference:true);
          Alcotest.test_case "golden reference off" `Quick
            (test_golden_rect_tolerance ~reference:false);
          Alcotest.test_case "timeout counts steps taken" `Quick
            test_timeout_counts_steps_taken;
          Alcotest.test_case "shape-drifted point runs alone" `Quick
            test_shape_drift_point;
          Alcotest.test_case "shape-drifted first point, one runner per shape"
            `Quick test_shape_drift_first_point;
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
