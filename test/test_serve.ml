(* Tests for the sweep service: protocol codec round-trips and
   malformed-frame rejection, checkpoint recovery and resume
   determinism, the forked worker pool's crash re-dispatch and timeout
   kill paths, and a fork-the-daemon end-to-end session. *)

module Spec = Amsvp_sweep.Spec
module Sampler = Amsvp_sweep.Sampler
module Runner = Amsvp_sweep.Runner
module Report = Amsvp_sweep.Report
module Checkpoint = Amsvp_sweep.Checkpoint
module Protocol = Amsvp_serve.Protocol
module Procpool = Amsvp_serve.Procpool
module Daemon = Amsvp_serve.Daemon
module Client = Amsvp_serve.Client
module Health = Amsvp_probe.Health
module Diag = Amsvp_diag.Diag
module Json = Amsvp_util.Json
module Journal = Amsvp_obs.Journal
module Obs = Amsvp_obs.Obs

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* ---- generators ---- *)

let hostile_floats =
  [| nan; infinity; neg_infinity; 0.0; -0.0; 1e-300; -1.5e300; 0.1 |]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, float);
        (2, map (fun i -> hostile_floats.(i mod Array.length hostile_floats))
             nat);
      ])

let hostile_strings =
  [ ""; "plain"; "\"quoted\""; "back\\slash"; "new\nline"; "tab\there";
    "\x01control"; "V(out,gnd)"; "caf\xc3\xa9" ]

let gen_string =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl hostile_strings);
        (1, string_size ~gen:printable (int_bound 20));
      ])

let gen_issue =
  QCheck.Gen.(
    let kind =
      oneofl
        [ Health.Nan_or_inf; Health.Amplitude; Health.Stuck;
          Health.Nrmse_budget; Health.Timeout; Health.Crashed ]
    in
    map3 (fun kind time value -> { Health.kind; time; value }) kind gen_float
      gen_float)

let gen_result =
  let open QCheck.Gen in
  int_bound 5000 >>= fun index ->
  gen_string >>= fun label ->
  list_size (int_bound 4)
    (pair (oneofl [ "r1.r"; "d1.g_on"; "weird\"key" ]) gen_float)
  >>= fun overrides ->
  gen_float >>= fun out_final ->
  gen_float >>= fun out_rms ->
  opt gen_float >>= fun nrmse ->
  gen_string >>= fun signal ->
  bool >>= fun healthy ->
  list_size (int_bound 3) gen_issue >>= fun issues ->
  bool >>= fun cached ->
  gen_float >|= fun wall_s ->
  {
    Runner.point = { Sampler.index; label; overrides };
    out_final;
    out_rms;
    nrmse;
    health = { Health.v_signal = signal; v_healthy = healthy; v_issues = issues };
    cached;
    wall_s;
  }

(* Encoded-form equality sidesteps NaN <> NaN: the codec is canonical,
   so equal encodings mean equal values. *)
let reencodes_to_same to_json of_json r =
  let line = to_json r in
  match of_json line with
  | Error m -> QCheck.Test.fail_reportf "decode failed on %s: %s" line m
  | Ok r' ->
      let line' = to_json r' in
      if line <> line' then
        QCheck.Test.fail_reportf "not canonical:\n  %s\n  %s" line line'
      else true

(* ---- protocol ---- *)

let prop_result_roundtrip =
  QCheck.Test.make ~name:"point-result codec round-trips" ~count:300
    (QCheck.make gen_result)
    (reencodes_to_same Checkpoint.result_to_json Checkpoint.result_of_line)

let prop_point_frame_roundtrip =
  QCheck.Test.make ~name:"point frames round-trip" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_bound 99) gen_result))
    (fun (id, result) ->
      reencodes_to_same
        (fun (id, result) ->
          Protocol.encode_response (Protocol.Point { id; result }))
        (fun line ->
          match Protocol.decode_response line with
          | Ok (Protocol.Point { id; result }) -> Ok (id, result)
          | Ok _ -> Error "wrong constructor"
          | Error _ as e -> e)
        (id, result))

let prop_submit_roundtrip =
  QCheck.Test.make ~name:"submit frames round-trip" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_string (opt (int_bound 64))))
    (fun (spec_text, jobs) ->
      let req = Protocol.Submit { spec_text; jobs } in
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok (Protocol.Submit { spec_text = st; jobs = j }) ->
          st = spec_text && j = jobs
      | _ -> false)

let test_simple_frames_roundtrip () =
  let reqs = [ Protocol.Ping; Protocol.Stats; Protocol.Shutdown ] in
  List.iter
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request" true (r = r')
      | Error m -> Alcotest.failf "decode: %s" m)
    reqs;
  let resps =
    [
      Protocol.Accepted
        { id = 3; sweep = "mc"; circuit = "RECT"; points = 66; resumed = 2 };
      Protocol.Done
        {
          id = 3;
          points = 66;
          unhealthy = 1;
          cache_hits = 60;
          cache_misses = 6;
          total_s = 1.25;
          complete = false;
        };
      Protocol.Failed { message = "bad spec: line 2" };
      Protocol.Rejected
        {
          message = "value-range screen rejected the sweep: 1 error(s)";
          findings =
            [
              {
                Diag.code = "AMS060";
                severity = Diag.Error;
                message = "division by a provably-zero quantity";
                span = Some (Diag.span ~file:"m.vams" 4 12);
                subject = Some "V(out,gnd)";
              };
              {
                Diag.code = "AMS063";
                severity = Diag.Warning;
                message = "bound exceeds the amplitude budget";
                span = None;
                subject = None;
              };
              {
                Diag.code = "AMS062";
                severity = Diag.Info;
                message = "proven-constant contribution";
                span = Some (Diag.span ~file:"m.vams" 7 3);
                subject = Some "r1";
              };
            ];
        };
      Protocol.Rejected { message = "gate refused"; findings = [] };
      Protocol.Pong;
      Protocol.Stats_reply
        {
          st_requests = 9;
          st_points = 120;
          st_ctx_hits = 7;
          st_ctx_misses = 2;
          st_uptime_s = 3.5;
          st_in_flight = 4;
          st_workers = 2;
          st_spawned = 11;
          st_crashed = 1;
          st_timeouts = 2;
          st_redispatched = 3;
          st_telemetry_torn = 0;
          st_journal_dropped = 17;
          st_heap_words = 1_000_003;
        };
      Protocol.Bye;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response" true (r = r')
      | Error m -> Alcotest.failf "decode: %s" m)
    resps

let test_malformed_frames_rejected () =
  let assert_err what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should have been rejected" what
  in
  let bad =
    [
      ("empty", "");
      ("not json", "hello");
      ("wrong version", "{\"v\":2,\"req\":\"ping\"}");
      ("no version", "{\"req\":\"ping\"}");
      ("unknown req", "{\"v\":1,\"req\":\"explode\"}");
      ("submit without spec", "{\"v\":1,\"req\":\"submit\"}");
      ("array frame", "[1,2,3]");
    ]
  in
  List.iter (fun (what, line) -> assert_err what (Protocol.decode_request line)) bad;
  (* Truncations of a valid frame must all be rejected, never raise. *)
  let whole =
    Protocol.encode_response
      (Protocol.Accepted
         { id = 1; sweep = "s\"weird"; circuit = "RECT"; points = 5;
           resumed = 0 })
  in
  for n = 0 to String.length whole - 1 do
    assert_err
      (Printf.sprintf "truncated at %d" n)
      (Protocol.decode_response (String.sub whole 0 n))
  done;
  assert_err "unknown event" (Protocol.decode_response "{\"v\":1,\"ev\":\"nope\"}")

(* ---- telemetry frames ---- *)

(* Journal payloads / span args / counter labels are keyed lists; JSON
   objects with duplicate keys are not guaranteed to survive a parse
   intact, and real emitters never produce them, so generators dedupe. *)
let dedupe_keys kvs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    kvs

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun f -> Journal.F f) gen_float);
        (2, map (fun i -> Journal.I (i - 500)) (int_bound 1000));
        (3, map (fun s -> Journal.S s) gen_string);
        (1, map (fun b -> Journal.B b) bool);
      ])

let gen_event =
  let open QCheck.Gen in
  nat >>= fun seq ->
  gen_string >>= fun origin ->
  int_bound 8 >>= fun dom ->
  gen_string >>= fun cat ->
  gen_string >>= fun name ->
  oneofl [ Journal.Debug; Journal.Info; Journal.Warn; Journal.Error ]
  >>= fun severity ->
  int_range (-1) 99 >>= fun step ->
  gen_float >>= fun time ->
  nat >>= fun wall_ns ->
  list_size (int_bound 4) (pair gen_string gen_value) >|= fun payload ->
  {
    Journal.seq;
    origin;
    dom;
    cat;
    name;
    severity;
    step;
    time;
    wall_ns;
    payload = dedupe_keys payload;
  }

let gen_span =
  let open QCheck.Gen in
  gen_string >>= fun name ->
  gen_string >>= fun cat ->
  nat >>= fun start_ns ->
  nat >>= fun dur_ns ->
  int_bound 4 >>= fun depth ->
  int_bound 8 >>= fun dom ->
  gen_string >>= fun proc ->
  list_size (int_bound 3) (pair gen_string gen_string) >|= fun args ->
  { Obs.name; cat; start_ns; dur_ns; depth; dom; proc;
    args = dedupe_keys args }

let gen_counter_row =
  QCheck.Gen.(
    map3
      (fun name labels delta -> (name, dedupe_keys labels, delta + 1))
      gen_string
      (list_size (int_bound 2) (pair gen_string gen_string))
      (int_bound 10_000))

let gen_telemetry =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun evs -> Protocol.Tel_journal evs)
             (list_size (int_bound 5) gen_event));
        ( 2,
          map2
            (fun origin spans -> Protocol.Tel_spans { origin; spans })
            gen_string
            (list_size (int_bound 5) gen_span) );
        ( 2,
          map2
            (fun origin counters -> Protocol.Tel_counters { origin; counters })
            gen_string
            (list_size (int_bound 4) gen_counter_row) );
      ])

let prop_telemetry_roundtrip =
  QCheck.Test.make ~name:"telemetry frames round-trip" ~count:300
    (QCheck.make gen_telemetry)
    (reencodes_to_same Protocol.encode_telemetry (fun line ->
         match Protocol.decode_telemetry line with
         | `Telemetry t -> Ok t
         | `Torn m -> Error ("torn: " ^ m)
         | `Not_telemetry -> Error "not telemetry"))

let test_telemetry_truncation () =
  let ev =
    {
      Journal.seq = 3;
      origin = "w1:4242";
      dom = 0;
      cat = "serve";
      name = "task.begin";
      severity = Journal.Info;
      step = -1;
      time = nan;
      wall_ns = 123_456;
      payload = [ ("id", Journal.I 7); ("label", Journal.S "p0001") ];
    }
  in
  let whole = Protocol.encode_telemetry (Protocol.Tel_journal [ ev ]) in
  (match Protocol.decode_telemetry whole with
  | `Telemetry _ -> ()
  | `Torn m -> Alcotest.failf "whole frame torn: %s" m
  | `Not_telemetry -> Alcotest.fail "whole frame not recognised");
  (* Every proper truncation must classify as torn (never raise, never
     parse) — except the empty line, which is simply not telemetry. *)
  for n = 0 to String.length whole - 1 do
    match Protocol.decode_telemetry (String.sub whole 0 n) with
    | `Torn _ when n > 0 -> ()
    | `Not_telemetry when n = 0 -> ()
    | `Telemetry _ -> Alcotest.failf "truncation at %d parsed" n
    | `Torn _ -> Alcotest.failf "empty line reported torn"
    | `Not_telemetry -> Alcotest.failf "truncation at %d not flagged" n
  done;
  (* Result and task lines must fall through untouched. *)
  List.iter
    (fun line ->
      match Protocol.decode_telemetry line with
      | `Not_telemetry -> ()
      | _ -> Alcotest.failf "misclassified line: %s" line)
    [
      "{\"index\":0,\"label\":\"p0000\"}";
      "hello";
      "{\"v\":1,\"req\":\"ping\"}";
    ]

(* [telemetry_prefix] is the one frame fragment not built through
   [Json.print]; it must be exactly how the printer opens a frame. *)
let test_telemetry_prefix_pinned () =
  let opening =
    Json.print
      (Json.Obj
         [
           ("v", Json.Num (float_of_int Protocol.version)); ("tel", Json.Str "");
         ])
  in
  Alcotest.(check string) "prefix is the printer's frame opening"
    (String.sub opening 0 (String.length opening - 2))
    Protocol.telemetry_prefix;
  List.iter
    (fun t ->
      let line = Protocol.encode_telemetry t in
      Alcotest.(check bool) ("frame starts with the prefix: " ^ line) true
        (String.starts_with ~prefix:Protocol.telemetry_prefix line))
    [
      Protocol.Tel_journal [];
      Protocol.Tel_spans { origin = "w0:1"; spans = [] };
      Protocol.Tel_counters { origin = "w0:1"; counters = [ ("c", [], 1) ] };
    ]

let test_ingest_telemetry_line () =
  Journal.enable ();
  Journal.reset ();
  Fun.protect
    ~finally:(fun () ->
      Journal.reset ();
      Journal.disable ())
    (fun () ->
      let tally = Procpool.make_tally () in
      let ev =
        {
          Journal.seq = 9;
          origin = "w0:777";
          dom = 2;
          cat = "mna";
          name = "newton.run";
          severity = Journal.Info;
          step = 4;
          time = 1e-5;
          wall_ns = 42;
          payload = [ ("total_iters", Journal.I 12) ];
        }
      in
      let line = Protocol.encode_telemetry (Protocol.Tel_journal [ ev ]) in
      Alcotest.(check bool) "valid frame absorbed" true
        (Procpool.ingest_telemetry_line ~tally line);
      let got =
        List.filter
          (fun e -> e.Journal.origin = "w0:777")
          (Journal.events ())
      in
      Alcotest.(check int) "foreign event ingested" 1 (List.length got);
      Alcotest.(check int) "seq preserved" 9 (List.hd got).Journal.seq;
      (* A torn frame is absorbed (true) but only counted, never fatal. *)
      Alcotest.(check bool) "torn frame absorbed" true
        (Procpool.ingest_telemetry_line ~tally
           (Protocol.telemetry_prefix ^ "journal\",\"events\":[{boom"));
      Alcotest.(check int) "torn counted" 1 tally.Procpool.t_torn;
      (* A result line is not telemetry. *)
      Alcotest.(check bool) "result line falls through" false
        (Procpool.ingest_telemetry_line ~tally "{\"index\":0}"))

(* ---- checkpoint files ---- *)

let small_spec =
  {
    Spec.default with
    name = "srv";
    circuit = Some "RECT";
    t_stop = Some 2e-4;
    dt = Some 1e-6;
    samples = 4;
    seed = 11;
    axes =
      [ { Spec.param = "d1.g_on"; range = Spec.Uniform { lo = 5e-3; hi = 2e-2 } } ];
    corners =
      [ { Spec.corner_name = "worst"; binds = [ ("r1.r", 2.2e3) ] } ];
  }

let resolve_exn spec =
  match Runner.resolve spec with
  | Ok tc -> tc
  | Error m -> Alcotest.failf "resolve: %s" m

let test_checkpoint_roundtrip () =
  let path = tmp "amsvp_ckpt_rt.jsonl" in
  let tc = resolve_exn small_spec in
  let summary = Runner.run small_spec tc in
  let w =
    Checkpoint.create ~path small_spec ~circuit:"RECT"
      ~points:(Array.length summary.Runner.points)
  in
  Array.iter (Checkpoint.append w) summary.Runner.points;
  Checkpoint.close w;
  (match Checkpoint.load ~path small_spec ~circuit:"RECT" with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok rs ->
      Alcotest.(check int) "count" (Array.length summary.Runner.points)
        (List.length rs);
      List.iteri
        (fun i (r : Runner.point_result) ->
          let orig = summary.Runner.points.(i) in
          Alcotest.(check string)
            "identical line"
            (Checkpoint.result_to_json orig)
            (Checkpoint.result_to_json r))
        rs);
  Sys.remove path

let test_checkpoint_mismatch_and_torn_tail () =
  let path = tmp "amsvp_ckpt_mm.jsonl" in
  let tc = resolve_exn small_spec in
  let ctx = Runner.prepare small_spec tc in
  let p0 = Runner.run_point ctx (Runner.ctx_points ctx).(0) in
  let w = Checkpoint.create ~path small_spec ~circuit:"RECT" ~points:5 in
  Checkpoint.append w p0;
  Checkpoint.append w p0;
  Checkpoint.close w;
  (* Foreign spec: same file, different seed -> digest mismatch. *)
  let other = { small_spec with Spec.seed = 99 } in
  (match Checkpoint.load ~path other ~circuit:"RECT" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched header should be rejected");
  (* Torn tail: a kill mid-write leaves a partial line; recovery keeps
     the intact prefix. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"index\":4,\"label\":\"p00";
  close_out oc;
  (match Checkpoint.load ~path small_spec ~circuit:"RECT" with
  | Error m -> Alcotest.failf "torn load: %s" m
  | Ok rs -> Alcotest.(check int) "torn tail dropped" 2 (List.length rs));
  Sys.remove path

let test_resume_determinism () =
  let path = tmp "amsvp_ckpt_resume.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let tc = resolve_exn small_spec in
  (* Uninterrupted reference run. *)
  let full = Runner.run small_spec tc in
  let report_a = Report.json ~timings:false full in
  let total = Array.length full.Runner.points in
  (* Interrupted run: checkpoint every point, die after the second. *)
  let w = Checkpoint.create ~path small_spec ~circuit:"RECT" ~points:total in
  let seen = ref 0 in
  (try
     ignore
       (Runner.run
          ~on_point:(fun r ->
            Checkpoint.append w r;
            incr seen;
            if !seen = 2 then failwith "simulated kill")
          small_spec tc)
   with Failure _ -> ());
  Checkpoint.close w;
  (* Resume: recover, execute only the remainder, merge. *)
  let completed =
    match Checkpoint.load ~path small_spec ~circuit:"RECT" with
    | Ok rs -> rs
    | Error m -> Alcotest.failf "load: %s" m
  in
  Alcotest.(check int) "recovered" 2 (List.length completed);
  let executed = ref 0 in
  let resumed =
    Runner.run ~on_point:(fun _ -> incr executed) ~completed small_spec tc
  in
  Alcotest.(check int) "only the remainder ran" (total - 2) !executed;
  let report_b = Report.json ~timings:false resumed in
  Alcotest.(check string) "byte-identical reports" report_a report_b;
  Sys.remove path

(* ---- forked worker pool ---- *)

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

(* A one-shot pool: create, run, close. *)
let with_pool ~workers ?timeout_s f k =
  let pool = Procpool.create ~workers ?timeout_s f in
  Fun.protect ~finally:(fun () -> Procpool.close pool) (fun () -> k pool)

let test_pool_exactly_once () =
  let points = pool_points 9 in
  let results =
    with_pool ~workers:3 (fun ~retry p -> mk ~retry p) (fun pool ->
        Procpool.run pool points)
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
  let tally = Procpool.make_tally () in
  let results =
    with_pool ~workers:2
      (fun ~retry p ->
        if p.Sampler.index = 2 && retry = 0 then Unix._exit 9 else mk ~retry p)
      (fun pool -> Procpool.run pool ~retries:1 ~tally points)
  in
  Alcotest.(check int) "one re-dispatch" 1 tally.Procpool.t_redispatched;
  Alcotest.(check int) "replacement spawned" 3 tally.Procpool.t_spawned;
  Alcotest.(check int) "no exhausted point" 0 tally.Procpool.t_crashed;
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
  let tally = Procpool.make_tally () in
  let results =
    with_pool ~workers:2
      (fun ~retry p ->
        ignore retry;
        if p.Sampler.index = 1 then Unix._exit 9 else mk p)
      (fun pool ->
        Procpool.run pool ~retries:1 ~signal:"V(out,gnd)" ~tally points)
  in
  Alcotest.(check int) "retries exhausted once" 1 tally.Procpool.t_crashed;
  Alcotest.(check int) "one re-dispatch before giving up" 1
    tally.Procpool.t_redispatched;
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
  let tally = Procpool.make_tally () in
  let results =
    with_pool ~workers:2 ~timeout_s:0.05
      (fun ~retry p ->
        ignore retry;
        if p.Sampler.index = 0 then Unix.sleepf 30.0;
        mk p)
      (fun pool -> Procpool.run pool ~tally points)
  in
  Alcotest.(check int) "kill counted" 1 tally.Procpool.t_timeouts;
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
  let tally = Procpool.make_tally () in
  let delivered = Array.make 3 0 in
  let results =
    with_pool ~workers:1
      (fun ~retry p ->
        if p.Sampler.index = 0 && retry = 0 then Unix._exit 9
        else mk ~retry p)
      (fun pool ->
        Procpool.run pool ~retries:1 ~tally
          ~on_result:(fun r ->
            let i = r.Runner.point.Sampler.index in
            delivered.(i) <- delivered.(i) + 1)
          points)
  in
  Alcotest.(check int) "one re-dispatch" 1 tally.Procpool.t_redispatched;
  Alcotest.(check int) "no exhausted point" 0 tally.Procpool.t_crashed;
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
  let tally = Procpool.make_tally () in
  let results =
    with_pool ~workers:1 ~timeout_s:0.2
      (fun ~retry p ->
        Unix.sleepf (if p.Sampler.index = 0 then 0.4 else 0.6);
        mk ~retry p)
      (fun pool -> Procpool.run pool ~tally points)
  in
  Alcotest.(check int) "no kill" 0 tally.Procpool.t_timeouts;
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
  let tally = Procpool.make_tally () in
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
      let results = Procpool.run pool ~request_id:id ~tally points in
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
  Alcotest.(check int) "no torn frames" 0 tally.Procpool.t_torn;
  Alcotest.(check int) "spawned once for both runs" 2 tally.Procpool.t_spawned;
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
        Procpool.run pool
          ~on_result:(fun r ->
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
        Procpool.run pool
          ~should_stop:(fun () ->
            incr polls;
            !polls > 1)
          points)
  in
  Alcotest.(check (list bool)) "head and queued point delivered"
    [ true; true; false; false; false; false; false; false ]
    (Array.to_list (Array.map Option.is_some results))

(* ---- end-to-end daemon session ---- *)

let wait_for_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 100

(* The pids of the workers that started tasks of request [id], from the
   daemon's journal sink: the origin of a worker event is
   "w<slot>:<pid>". *)
let worker_pids journal ~id =
  let ic = open_in_bin journal in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file ->
        close_in ic;
        acc
  in
  List.filter_map
    (fun line ->
      let j = Json.parse line in
      let req =
        Option.bind (Json.member "data" j) (Json.mem_float "id")
      in
      match (Json.mem_string "name" j, Json.mem_string "origin" j, req) with
      | Some "task.begin", Some origin, Some r when int_of_float r = id -> (
          match String.index_opt origin ':' with
          | Some i ->
              int_of_string_opt
                (String.sub origin (i + 1) (String.length origin - i - 1))
          | None -> None)
      | _ -> None)
    (lines [])
  |> List.sort_uniq compare

let check_gone what pids =
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | () -> Alcotest.failf "%s: worker %d still exists" what pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
    pids

(* Submit and collect the streamed results by point index, plus the
   request id from the [Accepted] frame. *)
let submit_collect c spec =
  let n = Spec.point_count spec in
  let got = Array.make n None in
  let id = ref (-1) in
  match
    Client.submit c ~spec_text:(Spec.to_string spec)
      ~on_event:(function
        | Protocol.Accepted { id = i; _ } -> id := i
        | Protocol.Point { result; _ } ->
            got.(result.Runner.point.Sampler.index) <- Some result
        | _ -> ())
      ()
  with
  | Ok (Protocol.Done { points; complete = true; _ }) when points = n ->
      (!id, Array.map Option.get got)
  | Ok r ->
      Alcotest.failf "unexpected final frame %s" (Protocol.encode_response r)
  | Error m -> Alcotest.failf "submit: %s" m

let stats c =
  Client.send c Protocol.Stats;
  match Client.recv c with
  | Ok (Protocol.Stats_reply st) -> st
  | _ -> Alcotest.fail "expected stats"

let bits (r : Runner.point_result) =
  List.map Int64.bits_of_float
    (r.Runner.out_final :: r.Runner.out_rms
    :: Option.to_list r.Runner.nrmse)

(* Run [k] against the forked daemon [pid]. A failing check must not
   leave the daemon and its workers running: they hold the test
   binary's output pipe open. *)
let guard_daemon pid k =
  match k () with
  | v -> v
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      raise e

let test_daemon_session () =
  let sock = tmp (Printf.sprintf "amsvp_serve_%d.sock" (Unix.getpid ())) in
  let metrics = tmp (Printf.sprintf "amsvp_serve_%d.prom" (Unix.getpid ())) in
  let trace = tmp (Printf.sprintf "amsvp_serve_%d.trace" (Unix.getpid ())) in
  let journal = tmp (Printf.sprintf "amsvp_serve_%d.jsonl" (Unix.getpid ())) in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ sock; metrics; trace; journal ];
  match Unix.fork () with
  | 0 ->
      (* Daemon process; _exit so the test runner's state is not
         flushed twice. *)
      (try
         Obs.enable ();
         Journal.enable ();
         Journal.attach_sink journal;
         Daemon.serve
           {
             (Daemon.default_config ~socket_path:sock) with
             workers = 2;
             metrics_out = Some metrics;
             trace_out = Some trace;
           }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      guard_daemon pid @@ fun () ->
      wait_for_socket sock;
      let c = Client.connect sock in
      Client.send c Protocol.Ping;
      (match Client.recv c with
      | Ok Protocol.Pong -> ()
      | other ->
          Alcotest.failf "expected pong, got %s"
            (match other with Ok r -> Protocol.encode_response r | Error m -> m));
      let spec_text = Spec.to_string small_spec in
      let expected = Spec.point_count small_spec in
      let streamed = ref 0 in
      (match
         Client.submit c ~spec_text
           ~on_event:(fun resp ->
             match resp with Protocol.Point _ -> incr streamed | _ -> ())
           ()
       with
      | Ok (Protocol.Done { points; complete; _ }) ->
          Alcotest.(check int) "streamed" expected !streamed;
          Alcotest.(check int) "done count" expected points;
          Alcotest.(check bool) "complete" true complete
      | Ok r ->
          Alcotest.failf "unexpected final frame %s" (Protocol.encode_response r)
      | Error m -> Alcotest.failf "submit: %s" m);
      Client.send c Protocol.Stats;
      (match Client.recv c with
      | Ok (Protocol.Stats_reply st) ->
          Alcotest.(check bool) "requests counted" true (st.st_requests >= 1);
          Alcotest.(check int) "points counted" expected st.st_points;
          Alcotest.(check int) "workers" 2 st.st_workers;
          Alcotest.(check bool) "workers spawned" true (st.st_spawned >= 2);
          Alcotest.(check int) "nothing in flight" 0 st.st_in_flight;
          Alcotest.(check bool) "uptime sane" true (st.st_uptime_s >= 0.0);
          Alcotest.(check bool) "heap words sane" true (st.st_heap_words > 0);
          Alcotest.(check int) "no crashes" 0 st.st_crashed
      | other ->
          Alcotest.failf "expected stats, got %s"
            (match other with
            | Ok r -> Protocol.encode_response r
            | Error m -> m));
      (* The same spec twice: the second submit runs on the warm pool
         (no fork) and streams the same values, bit for bit. *)
      let id1, first = submit_collect c small_spec in
      let spawned = (stats c).st_spawned in
      let id2, second = submit_collect c small_spec in
      let st = stats c in
      Alcotest.(check int) "warm submit spawns no worker" spawned
        st.st_spawned;
      Array.iteri
        (fun i r ->
          Alcotest.(check (list int64))
            (Printf.sprintf "point %d bit-identical" i)
            (bits first.(i)) (bits r))
        second;
      Client.send c Protocol.Shutdown;
      (match Client.recv c with
      | Ok Protocol.Bye -> ()
      | _ -> Alcotest.fail "expected bye");
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _ -> Alcotest.fail "daemon killed");
      (* Shutdown closes the pool and reaps its workers before the
         daemon exits. *)
      let pids = worker_pids journal ~id:id1 in
      Alcotest.(check bool) "workers journaled their pids" true (pids <> []);
      Alcotest.(check (list int)) "the warm submit used the same workers"
        pids (worker_pids journal ~id:id2);
      check_gone "after shutdown" pids;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
      (* The shutdown path must leave a parseable metrics textfile and
         a trace document behind. *)
      Alcotest.(check bool) "metrics written" true (Sys.file_exists metrics);
      let slurp p =
        let ic = open_in_bin p in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          if i + nn > nh then false
          else String.sub hay i nn = needle || go (i + 1)
        in
        go 0
      in
      let prom = slurp metrics in
      Alcotest.(check bool) "metrics mention the service" true
        (contains prom "amsvp_serve_in_flight");
      Alcotest.(check bool) "trace written" true (Sys.file_exists trace);
      let tr = slurp trace in
      Alcotest.(check bool) "trace is a trace document" true
        (contains tr "\"traceEvents\"");
      List.iter Sys.remove [ metrics; trace; journal ]

(* Submit [specs] in order to a daemon whose cache keeps [cache_max]
   sweeps. All specs are distinct, so every submit misses, forks one
   worker and evicts the sweep submitted [cache_max] requests earlier,
   whose pool must be closed (its worker reaped) without hanging the
   daemon; the sweeps still cached keep their workers alive. *)
let eviction_session ~tag ~cache_max specs =
  let sock =
    tmp (Printf.sprintf "amsvp_serve_%s_%d.sock" tag (Unix.getpid ()))
  in
  let journal =
    tmp (Printf.sprintf "amsvp_serve_%s_%d.jsonl" tag (Unix.getpid ()))
  in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ sock; journal ];
  match Unix.fork () with
  | 0 ->
      (try
         Journal.enable ();
         Journal.attach_sink journal;
         Daemon.serve
           {
             (Daemon.default_config ~socket_path:sock) with
             workers = 1;
             ctx_cache_max = cache_max;
           }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      guard_daemon pid @@ fun () ->
      wait_for_socket sock;
      let c = Client.connect sock in
      let pools = ref [] (* worker pids per submit, most recent first *) in
      List.iteri
        (fun k spec ->
          let id, _ = submit_collect c spec in
          (* The stats round trip also waits for the request's journal
             flush. *)
          let st = stats c in
          Alcotest.(check int) "every submit misses" (k + 1) st.st_ctx_misses;
          Alcotest.(check int) "one fork per submit" (k + 1) st.st_spawned;
          let pids = worker_pids journal ~id in
          Alcotest.(check int) "one worker per pool" 1 (List.length pids);
          pools := pids :: !pools;
          List.iteri
            (fun age pids ->
              if age < cache_max then
                List.iter
                  (fun p ->
                    match Unix.kill p 0 with
                    | () -> ()
                    | exception Unix.Unix_error _ ->
                        Alcotest.failf "cached sweep's worker %d is gone" p)
                  pids
              else
                check_gone (Printf.sprintf "after submit %d" (k + 1)) pids)
            !pools)
        specs;
      Client.send c Protocol.Shutdown;
      (match Client.recv c with
      | Ok Protocol.Bye -> ()
      | _ -> Alcotest.fail "expected bye");
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _ -> Alcotest.fail "daemon killed");
      check_gone "after shutdown" (List.concat !pools);
      Sys.remove journal

let spec_b = { small_spec with Spec.name = "srv_b"; seed = 12 }
let spec_c = { small_spec with Spec.name = "srv_c"; seed = 13 }

(* Two alternating specs through a one-sweep cache. *)
let test_daemon_eviction () =
  eviction_session ~tag:"ev1" ~cache_max:1
    [ small_spec; spec_b; small_spec; spec_b ]

(* A pool evicted while a younger pool is live: the younger pool's
   worker was forked holding the older pool's pipe ends unless it closed
   them, and would then keep the evicted worker from seeing EOF. *)
let test_daemon_eviction_younger_pool () =
  eviction_session ~tag:"ev2" ~cache_max:2 [ small_spec; spec_b; spec_c ]

(* Induce per-point timeouts with a microscopic default budget: every
   point must come back with a Timeout verdict and the stats reply must
   surface the count. *)
let test_daemon_timeout_counters () =
  let sock = tmp (Printf.sprintf "amsvp_serve_to_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  match Unix.fork () with
  | 0 ->
      (try
         Daemon.serve
           {
             (Daemon.default_config ~socket_path:sock) with
             workers = 2;
             point_timeout_s = Some 1e-9;
           }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      wait_for_socket sock;
      let c = Client.connect sock in
      let spec_text = Spec.to_string small_spec in
      let expected = Spec.point_count small_spec in
      (match Client.submit c ~spec_text () with
      | Ok (Protocol.Done { points; unhealthy; complete; _ }) ->
          Alcotest.(check int) "all points resolved" expected points;
          Alcotest.(check bool) "timeouts flagged unhealthy" true
            (unhealthy > 0);
          Alcotest.(check bool) "complete" true complete
      | Ok r ->
          Alcotest.failf "unexpected final frame %s" (Protocol.encode_response r)
      | Error m -> Alcotest.failf "submit: %s" m);
      Client.send c Protocol.Stats;
      (match Client.recv c with
      | Ok (Protocol.Stats_reply st) ->
          Alcotest.(check bool)
            (Printf.sprintf "timeouts surfaced (got %d)" st.st_timeouts)
            true (st.st_timeouts > 0)
      | _ -> Alcotest.fail "expected stats");
      Client.send c Protocol.Shutdown;
      (match Client.recv c with
      | Ok Protocol.Bye -> ()
      | _ -> Alcotest.fail "expected bye");
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _ -> Alcotest.fail "daemon killed"

(* A daemon under --werror must answer a submit whose value-range
   screen errors with a structured [Rejected] frame carrying the
   diagnostics — and keep serving: the worker never crashes, later
   requests (including a clean sweep) still succeed. *)
let test_daemon_werror_rejection () =
  let sock = tmp (Printf.sprintf "amsvp_serve_we_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  match Unix.fork () with
  | 0 ->
      (try
         Daemon.serve
           {
             (Daemon.default_config ~socket_path:sock) with
             workers = 2;
             werror = true;
           }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      wait_for_socket sock;
      let c = Client.connect sock in
      (* An absurdly small amplitude budget: the interpreter proves the
         output bound exceeds it (AMS063, a warning), werror upgrades
         it to an error, the screen rejects the submit. *)
      let doomed =
        { small_spec with Spec.name = "doomed"; amplitude_limit = Some 1e-9 }
      in
      (match Client.submit c ~spec_text:(Spec.to_string doomed) () with
      | Ok (Protocol.Rejected { message; findings }) ->
          Alcotest.(check bool) "message names the screen" true
            (String.length message > 0);
          Alcotest.(check bool) "findings delivered" true (findings <> []);
          Alcotest.(check bool) "AMS063 among them" true
            (List.exists (fun f -> f.Diag.code = "AMS063") findings);
          List.iter
            (fun f ->
              Alcotest.(check bool) "every finding has a registered code"
                true
                (Diag.is_code f.Diag.code))
            findings
      | Ok r ->
          Alcotest.failf "expected rejection, got %s"
            (Protocol.encode_response r)
      | Error m -> Alcotest.failf "submit: %s" m);
      (* Daemon must still be alive and serving. *)
      Client.send c Protocol.Ping;
      (match Client.recv c with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "daemon dead after rejection");
      (* A clean spec (no amplitude budget ⇒ no AMS063) still runs. *)
      let expected = Spec.point_count small_spec in
      (match Client.submit c ~spec_text:(Spec.to_string small_spec) () with
      | Ok (Protocol.Done { points; complete; _ }) ->
          Alcotest.(check int) "clean sweep ran" expected points;
          Alcotest.(check bool) "complete" true complete
      | Ok r ->
          Alcotest.failf "unexpected final frame %s"
            (Protocol.encode_response r)
      | Error m -> Alcotest.failf "clean submit: %s" m);
      Client.send c Protocol.Shutdown;
      (match Client.recv c with
      | Ok Protocol.Bye -> ()
      | _ -> Alcotest.fail "expected bye");
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _ -> Alcotest.fail "daemon killed")

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "protocol",
        qt [ prop_result_roundtrip; prop_point_frame_roundtrip;
             prop_submit_roundtrip ]
        @ [
            Alcotest.test_case "simple frames round-trip" `Quick
              test_simple_frames_roundtrip;
            Alcotest.test_case "malformed frames rejected" `Quick
              test_malformed_frames_rejected;
          ] );
      ( "telemetry",
        qt [ prop_telemetry_roundtrip ]
        @ [
            Alcotest.test_case "truncated frames torn, results untouched"
              `Quick test_telemetry_truncation;
            Alcotest.test_case "ingest_telemetry_line" `Quick
              test_ingest_telemetry_line;
            Alcotest.test_case "prefix pinned to the printer" `Quick
              test_telemetry_prefix_pinned;
          ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "mismatch and torn tail" `Quick
            test_checkpoint_mismatch_and_torn_tail;
          Alcotest.test_case "resume determinism" `Quick
            test_resume_determinism;
        ] );
      ( "procpool",
        [
          Alcotest.test_case "exactly once" `Quick test_pool_exactly_once;
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
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end-to-end session" `Quick test_daemon_session;
          Alcotest.test_case "eviction closes the pool" `Quick
            test_daemon_eviction;
          Alcotest.test_case "eviction beside a younger pool" `Quick
            test_daemon_eviction_younger_pool;
          Alcotest.test_case "timeout counters surfaced" `Quick
            test_daemon_timeout_counters;
          Alcotest.test_case "werror rejection is structured, daemon survives"
            `Quick test_daemon_werror_rejection;
        ] );
    ]
