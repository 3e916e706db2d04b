(* Tests for the sweep service: protocol and telemetry codec
   round-trips and malformed-frame rejection, checkpoint recovery and
   resume determinism, and fork-the-daemon end-to-end sessions. The
   worker pool itself is tested in test_sweep.ml. *)

module Spec = Amsvp_sweep.Spec
module Sampler = Amsvp_sweep.Sampler
module Runner = Amsvp_sweep.Runner
module Report = Amsvp_sweep.Report
module Checkpoint = Amsvp_sweep.Checkpoint
module Protocol = Amsvp_serve.Protocol
module Pool = Amsvp_sweep.Pool
module Point_result = Amsvp_sweep.Point_result
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
    (reencodes_to_same Point_result.to_line Point_result.of_line)

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
    (QCheck.make gen_string)
    (fun spec_text ->
      let req = Protocol.Submit { spec_text } in
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok (Protocol.Submit { spec_text = st }) -> st = spec_text
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
  gen_string >>= fun proc ->
  list_size (int_bound 3) (pair gen_string gen_string) >|= fun args ->
  { Obs.name; cat; start_ns; dur_ns; depth; proc;
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
        (3, map (fun evs -> Pool.Tel_journal evs)
             (list_size (int_bound 5) gen_event));
        ( 2,
          map2
            (fun origin spans -> Pool.Tel_spans { origin; spans })
            gen_string
            (list_size (int_bound 5) gen_span) );
        ( 2,
          map2
            (fun origin counters -> Pool.Tel_counters { origin; counters })
            gen_string
            (list_size (int_bound 4) gen_counter_row) );
      ])

let prop_telemetry_roundtrip =
  QCheck.Test.make ~name:"telemetry frames round-trip" ~count:300
    (QCheck.make gen_telemetry)
    (reencodes_to_same Pool.encode_telemetry (fun line ->
         match Pool.decode_telemetry line with
         | `Telemetry t -> Ok t
         | `Torn m -> Error ("torn: " ^ m)
         | `Not_telemetry -> Error "not telemetry"))

let test_telemetry_truncation () =
  let ev =
    {
      Journal.seq = 3;
      origin = "w1:4242";
      cat = "serve";
      name = "task.begin";
      severity = Journal.Info;
      step = -1;
      time = nan;
      wall_ns = 123_456;
      payload = [ ("id", Journal.I 7); ("label", Journal.S "p0001") ];
    }
  in
  let whole = Pool.encode_telemetry (Pool.Tel_journal [ ev ]) in
  (match Pool.decode_telemetry whole with
  | `Telemetry _ -> ()
  | `Torn m -> Alcotest.failf "whole frame torn: %s" m
  | `Not_telemetry -> Alcotest.fail "whole frame not recognised");
  (* Every proper truncation must classify as torn (never raise, never
     parse) — except the empty line, which is simply not telemetry. *)
  for n = 0 to String.length whole - 1 do
    match Pool.decode_telemetry (String.sub whole 0 n) with
    | `Torn _ when n > 0 -> ()
    | `Not_telemetry when n = 0 -> ()
    | `Telemetry _ -> Alcotest.failf "truncation at %d parsed" n
    | `Torn _ -> Alcotest.failf "empty line reported torn"
    | `Not_telemetry -> Alcotest.failf "truncation at %d not flagged" n
  done;
  (* Result and task lines must fall through untouched. *)
  List.iter
    (fun line ->
      match Pool.decode_telemetry line with
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
    Pool.telemetry_prefix;
  List.iter
    (fun t ->
      let line = Pool.encode_telemetry t in
      Alcotest.(check bool) ("frame starts with the prefix: " ^ line) true
        (String.starts_with ~prefix:Pool.telemetry_prefix line))
    [
      Pool.Tel_journal [];
      Pool.Tel_spans { origin = "w0:1"; spans = [] };
      Pool.Tel_counters { origin = "w0:1"; counters = [ ("c", [], 1) ] };
    ]

let test_ingest_telemetry_line () =
  Journal.enable ();
  Journal.reset ();
  Fun.protect
    ~finally:(fun () ->
      Journal.reset ();
      Journal.disable ())
    (fun () ->
      let tally = Pool.make_tally () in
      let ev =
        {
          Journal.seq = 9;
          origin = "w0:777";
          cat = "mna";
          name = "newton.run";
          severity = Journal.Info;
          step = 4;
          time = 1e-5;
          wall_ns = 42;
          payload = [ ("total_iters", Journal.I 12) ];
        }
      in
      let line = Pool.encode_telemetry (Pool.Tel_journal [ ev ]) in
      Alcotest.(check bool) "valid frame absorbed" true
        (Pool.ingest_telemetry_line ~tally line);
      let got =
        List.filter
          (fun e -> e.Journal.origin = "w0:777")
          (Journal.events ())
      in
      Alcotest.(check int) "foreign event ingested" 1 (List.length got);
      Alcotest.(check int) "seq preserved" 9 (List.hd got).Journal.seq;
      (* A torn frame is absorbed (true) but only counted, never fatal. *)
      Alcotest.(check bool) "torn frame absorbed" true
        (Pool.ingest_telemetry_line ~tally ~request_id:5
           (Pool.telemetry_prefix ^ "journal\",\"events\":[{boom"));
      Alcotest.(check int) "torn counted" 1 tally.Pool.t_torn;
      (match
         List.filter
           (fun e -> e.Journal.name = "telemetry.torn")
           (Journal.events ())
       with
      | [ e ] ->
          Alcotest.(check bool) "torn event names the request" true
            (List.assoc_opt "id" e.Journal.payload = Some (Journal.I 5))
      | es -> Alcotest.failf "%d telemetry.torn events" (List.length es));
      (* A result line is not telemetry. *)
      Alcotest.(check bool) "result line falls through" false
        (Pool.ingest_telemetry_line ~tally "{\"index\":0}"))

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
  Array.iter
    (fun r -> Checkpoint.append w (Point_result.to_line r))
    summary.Runner.points;
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
            (Point_result.to_line orig)
            (Point_result.to_line r))
        rs);
  Sys.remove path

let test_checkpoint_mismatch_and_torn_tail () =
  let path = tmp "amsvp_ckpt_mm.jsonl" in
  let tc = resolve_exn small_spec in
  let ctx = Runner.prepare small_spec tc in
  let p0 = Runner.run_point ctx (Runner.ctx_points ctx).(0) in
  let w = Checkpoint.create ~path small_spec ~circuit:"RECT" ~points:5 in
  Checkpoint.append w (Point_result.to_line p0);
  Checkpoint.append w (Point_result.to_line p0);
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

(* Resume [ctx]'s sweep from the checkpoint at [path]: the summary,
   how many points the session recovered, and how many it executed
   (delivered after the recovered ones). *)
let resume_session ctx path =
  let resumed = ref (-1) and delivered = ref 0 in
  match
    Runner.session ~checkpoint:(`Resume path)
      ~on_open:(fun n -> resumed := n)
      ~on_point:(fun ~line:_ _ -> incr delivered)
      ctx
  with
  | Error m -> Alcotest.failf "resume: %s" m
  | Ok s -> (s, !resumed, !delivered - !resumed)

let slurp path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let test_resume_determinism () =
  let path = tmp "amsvp_ckpt_resume.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let tc = resolve_exn small_spec in
  (* Uninterrupted reference run. *)
  let full = Runner.run small_spec tc in
  let report_a = Report.json ~timings:false full in
  let total = Array.length full.Runner.points in
  (* Interrupted run: checkpoint every point, die after the second. *)
  let ctx = Runner.prepare small_spec tc in
  let seen = ref 0 in
  (try
     ignore
       (Runner.session ~checkpoint:(`Fresh path)
          ~on_point:(fun ~line:_ _ ->
            incr seen;
            if !seen = 2 then failwith "simulated kill")
          ctx)
   with Failure _ -> ());
  let completed =
    match Checkpoint.load ~path small_spec ~circuit:"RECT" with
    | Ok rs -> rs
    | Error m -> Alcotest.failf "load: %s" m
  in
  Alcotest.(check int) "recovered" 2 (List.length completed);
  (* Resume: recover, execute only the remainder, merge. *)
  let resumed, recovered, executed = resume_session ctx path in
  Alcotest.(check int) "resume recovered" 2 recovered;
  Alcotest.(check int) "only the remainder ran" (total - 2) executed;
  let report_b = Report.json ~timings:false resumed in
  Alcotest.(check string) "byte-identical reports" report_a report_b;
  Sys.remove path

(* How many processes run the points is no part of a sweep's identity:
   a checkpoint written under jobs 1 resumes under jobs 2 and reports
   byte-identically to an uninterrupted 2-process run. *)
let test_resume_other_jobs () =
  let path = tmp "amsvp_ckpt_jobs.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let spec jobs = { small_spec with Spec.jobs = Some jobs } in
  let tc = resolve_exn small_spec in
  let seen = ref 0 in
  (try
     ignore
       (Runner.session ~checkpoint:(`Fresh path)
          ~on_point:(fun ~line:_ _ ->
            incr seen;
            if !seen = 2 then failwith "simulated kill")
          (Runner.prepare (spec 1) tc))
   with Failure _ -> ());
  let resumed, recovered, _ =
    resume_session (Runner.prepare (spec 2) tc) path
  in
  Alcotest.(check int) "recovered under jobs 2" 2 recovered;
  Alcotest.(check string) "byte-identical report"
    (Report.json ~timings:false (Runner.run (spec 2) tc))
    (Report.json ~timings:false resumed);
  Sys.remove path

(* A resume must cut a torn tail before appending: otherwise the first
   appended line is glued to the partial one and the next resume stops
   there. *)
let test_resume_cuts_torn_tail () =
  let path = tmp "amsvp_ckpt_tail.jsonl" in
  let tc = resolve_exn small_spec in
  let ctx = Runner.prepare small_spec tc in
  let r = Array.map (Runner.run_point ctx) (Runner.ctx_points ctx) in
  let w = Checkpoint.create ~path small_spec ~circuit:"RECT" ~points:5 in
  Checkpoint.append w (Point_result.to_line r.(0));
  Checkpoint.append w (Point_result.to_line r.(1));
  Checkpoint.close w;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"index\":2,\"label\":\"p00";
  close_out oc;
  (match Checkpoint.resume ~path small_spec ~circuit:"RECT" ~points:5 with
  | Error m -> Alcotest.failf "resume: %s" m
  | Ok (rs, w) ->
      Alcotest.(check int) "first resume" 2 (List.length rs);
      Checkpoint.append w (Point_result.to_line r.(2));
      Checkpoint.append w (Point_result.to_line r.(3));
      Checkpoint.close w);
  (match Checkpoint.load ~path small_spec ~circuit:"RECT" with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok rs ->
      Alcotest.(check (list int)) "all four recovered" [ 0; 1; 2; 3 ]
        (List.map
           (fun (x : Runner.point_result) -> x.point.Sampler.index)
           rs));
  Sys.remove path

(* A header cut short by a kill inside [create] resumes as an empty
   checkpoint; a complete header of another sweep is refused, and the
   file is left as it was. *)
let test_resume_torn_and_foreign_header () =
  let path = tmp "amsvp_ckpt_header.jsonl" in
  let tc = resolve_exn small_spec in
  let ctx = Runner.prepare small_spec tc in
  let total = Array.length (Runner.ctx_points ctx) in
  let w = Checkpoint.create ~path small_spec ~circuit:"RECT" ~points:total in
  Checkpoint.close w;
  let header = slurp path in
  write_file path (String.sub header 0 (String.length header / 2));
  let s, recovered, executed = resume_session ctx path in
  Alcotest.(check int) "torn header recovers nothing" 0 recovered;
  Alcotest.(check int) "every point ran" total executed;
  Alcotest.(check int) "summary complete" total
    (Array.length s.Runner.points);
  Alcotest.(check string) "header rewritten" header
    (String.sub (slurp path) 0 (String.length header));
  let foreign = { small_spec with Spec.seed = 99 } in
  let w = Checkpoint.create ~path foreign ~circuit:"RECT" ~points:total in
  Checkpoint.close w;
  let before = slurp path in
  (match Runner.session ~checkpoint:(`Resume path) ctx with
  | Ok _ -> Alcotest.fail "a foreign checkpoint must be refused"
  | Error _ -> ());
  Alcotest.(check string) "foreign file untouched" before (slurp path);
  Sys.remove path

(* The deterministic half of kill-anywhere: a kill leaves a prefix of
   the checkpoint, so cut a complete one at a random byte, resume, cut
   the resumed file again and resume again. Each resume must recover
   exactly the intact lines of the cut, execute only the rest, and
   report byte-identically to an uninterrupted run. *)
let truncate_anywhere ~jobs ~tag =
  let tc = resolve_exn small_spec in
  let ctx = Runner.prepare ~jobs small_spec tc in
  let path = tmp (Printf.sprintf "amsvp_ckpt_cut_%s.jsonl" tag) in
  let reference =
    lazy
      (match Runner.session ~checkpoint:(`Fresh path) ctx with
      | Ok s -> (Report.json ~timings:false s, slurp path)
      | Error m -> Alcotest.failf "fresh: %s" m)
  in
  let total = Array.length (Runner.ctx_points ctx) in
  let cut_and_resume text frac =
    let len = int_of_float (frac *. float_of_int (String.length text)) in
    write_file path (String.sub text 0 len);
    let intact =
      match Checkpoint.load ~path small_spec ~circuit:"RECT" with
      | Ok rs -> List.length rs
      | Error m -> Alcotest.failf "load: %s" m
    in
    let s, recovered, executed = resume_session ctx path in
    let report, _ = Lazy.force reference in
    recovered = intact
    && executed = total - recovered
    && Report.json ~timings:false s = report
    &&
    match Checkpoint.load ~path small_spec ~circuit:"RECT" with
    | Ok rs ->
        List.sort compare
          (List.map
             (fun (r : Runner.point_result) -> r.point.Sampler.index)
             rs)
        = List.init total Fun.id
    | Error _ -> false
  in
  fun (f1, f2) ->
    let _, complete = Lazy.force reference in
    cut_and_resume complete f1 && cut_and_resume (slurp path) f2

let prop_truncate_anywhere =
  QCheck.Test.make ~name:"truncate anywhere, resume twice, same report"
    ~count:100
    QCheck.(pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    (truncate_anywhere ~jobs:1 ~tag:"inline")

let test_truncate_anywhere_pool () =
  (* Mid-point-line, then mid-header of the resumed file. *)
  Alcotest.(check bool) "2-worker pool" true
    (truncate_anywhere ~jobs:2 ~tag:"pool" (0.6, 0.05))

(* ---- wire identity ---- *)

(* A result crosses the pool once, as the line its worker printed: the
   session appends those bytes to the checkpoint and the daemon wraps
   them in the [Point] frame. Over random results — NaN and +-inf
   values, empty and non-empty issues, with and without an NRMSE — both
   must equal what the encoders print for the record the parent
   decoded. The results are those of [small_spec]'s points, run on a
   2-worker pool. *)
let wire_ctx = lazy (Runner.prepare ~jobs:2 small_spec (resolve_exn small_spec))

let prop_wire_identity =
  let ctx = Lazy.force wire_ctx in
  let points = Runner.ctx_points ctx in
  let n = Array.length points in
  QCheck.Test.make ~name:"forwarded lines equal the encoders" ~count:20
    (QCheck.make QCheck.Gen.(list_repeat n gen_result))
    (fun results ->
      let results = Array.of_list results in
      let path = tmp "amsvp_wire.jsonl" in
      let pool =
        Pool.create ~workers:2 ~points (fun ~retry:_ (p : Sampler.point) ->
            { (results.(p.Sampler.index)) with Runner.point = p })
      in
      let id = 3 and frames = ref [] in
      let session () =
        Runner.session ~checkpoint:(`Fresh path)
          ~on_point:(fun ~line r ->
            frames := (Protocol.point_frame ~id line, r) :: !frames)
          ~execute:(fun ~on_result ~on_batch pending ->
            ignore (Pool.run pool ~on_result ~on_batch pending))
          ctx
      in
      match Fun.protect ~finally:(fun () -> Pool.close pool) session with
      | Error m -> QCheck.Test.fail_reportf "session: %s" m
      | Ok _ ->
          let delivered = List.rev !frames in
          let checkpointed =
            match String.split_on_char '\n' (slurp path) with
            | _header :: lines -> List.filter (( <> ) "") lines
            | [] -> []
          in
          Sys.remove path;
          List.length delivered = n
          && checkpointed
             = List.map (fun (_, r) -> Point_result.to_line r) delivered
          && List.for_all
               (fun (frame, r) ->
                 frame
                 = Protocol.encode_response (Protocol.Point { id; result = r }))
               delivered)

(* A result line cut anywhere past the two bytes it shares with
   telemetry frames is neither telemetry nor a result: the pool takes it for a
   worker that died mid-write. *)
let prop_torn_result_is_death =
  QCheck.Test.make ~name:"a torn result line is a death" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_result (float_bound_inclusive 1.0)))
    (fun (r, frac) ->
      let line = Point_result.to_line r in
      let cut =
        String.sub line 0
          (3 + int_of_float (frac *. float_of_int (String.length line - 4)))
      in
      (not (Pool.ingest_telemetry_line cut))
      && Result.is_error (Point_result.of_line cut))

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

(* The daemon runs points on its own [workers] processes whatever the
   spec's [jobs] directive says, so two submits that differ only in it
   share one warm sweep: one ctx miss, and the second submit forks no
   worker. *)
let test_daemon_jobs_directive_shares_ctx () =
  let sock = tmp (Printf.sprintf "amsvp_serve_jd_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  match Unix.fork () with
  | 0 ->
      (try
         Daemon.serve
           { (Daemon.default_config ~socket_path:sock) with workers = 1 }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      guard_daemon pid @@ fun () ->
      wait_for_socket sock;
      let c = Client.connect sock in
      let _, first = submit_collect c { small_spec with Spec.jobs = Some 1 } in
      let st1 = stats c in
      let _, second = submit_collect c { small_spec with Spec.jobs = Some 3 } in
      let st2 = stats c in
      Alcotest.(check int) "one ctx miss" 1 st2.st_ctx_misses;
      Alcotest.(check int) "second submit hit" 1 st2.st_ctx_hits;
      Alcotest.(check int) "no fork on the second submit" st1.st_spawned
        st2.st_spawned;
      Array.iteri
        (fun i r ->
          Alcotest.(check (list int64)) "same values" (bits r) (bits second.(i)))
        first;
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

(* The socket path appears only once the daemon listens on it: a
   client that connects the moment the path exists, with no retry, is
   never refused. Started afresh each round, so the connect races the
   daemon's startup every time. *)
let test_daemon_socket_ready () =
  for round = 1 to 25 do
    let sock =
      tmp (Printf.sprintf "amsvp_serve_ready_%d.sock" (Unix.getpid ()))
    in
    if Sys.file_exists sock then Sys.remove sock;
    match Unix.fork () with
    | 0 ->
        (try
           Daemon.serve
             { (Daemon.default_config ~socket_path:sock) with workers = 1 }
         with _ -> Unix._exit 1);
        Unix._exit 0
    | pid -> (
        guard_daemon pid @@ fun () ->
        let deadline = Unix.gettimeofday () +. 10.0 in
        while not (Sys.file_exists sock) do
          if Unix.gettimeofday () > deadline then
            Alcotest.failf "round %d: daemon socket never appeared" round
        done;
        let c =
          match Client.connect sock with
          | c -> c
          | exception Unix.Unix_error (e, _, _) ->
              Alcotest.failf "round %d: connect on first sight failed: %s"
                round (Unix.error_message e)
        in
        Client.send c Protocol.Shutdown;
        (match Client.recv c with
        | Ok Protocol.Bye -> ()
        | _ -> Alcotest.failf "round %d: expected bye" round);
        Client.close c;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.failf "round %d: daemon did not exit cleanly" round)
  done

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

(* A daemon checkpointing into [dir] resumes a submit from the
   digest-named file: [k] intact lines and a torn tail give
   [resumed = k], the recovered points stream first, every result is
   bit-identical to an in-process run, and the file is removed once the
   sweep completes. A drained submit keeps its checkpoint. *)
let test_daemon_resume () =
  let pid_tag = Unix.getpid () in
  let dir = tmp (Printf.sprintf "amsvp_serve_ckpt_%d" pid_tag) in
  let sock = tmp (Printf.sprintf "amsvp_serve_rs_%d.sock" pid_tag) in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if Sys.file_exists sock then Sys.remove sock;
  let path_of spec =
    Filename.concat dir
      (Printf.sprintf "%s-%s.ckpt.jsonl" spec.Spec.name
         (Checkpoint.digest spec ~circuit:"RECT"))
  in
  let tc = resolve_exn small_spec in
  let ctx = Runner.prepare small_spec tc in
  let expected = Array.map (Runner.run_point ctx) (Runner.ctx_points ctx) in
  let total = Array.length expected and k = 2 in
  let path = path_of small_spec in
  let w = Checkpoint.create ~path small_spec ~circuit:"RECT" ~points:total in
  for i = 0 to k - 1 do
    Checkpoint.append w (Point_result.to_line expected.(i))
  done;
  Checkpoint.close w;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"index\":2,\"lab";
  close_out oc;
  match Unix.fork () with
  | 0 ->
      (try
         Daemon.serve
           {
             (Daemon.default_config ~socket_path:sock) with
             workers = 2;
             checkpoint_dir = Some dir;
           }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      guard_daemon pid @@ fun () ->
      wait_for_socket sock;
      let c = Client.connect sock in
      let submit ?(on_point = ignore) spec =
        let frames = ref [] in
        match
          Client.submit c ~spec_text:(Spec.to_string spec)
            ~on_event:(fun f ->
              frames := f :: !frames;
              match f with Protocol.Point _ -> on_point () | _ -> ())
            ()
        with
        | Ok final -> (List.rev !frames, final)
        | Error m -> Alcotest.failf "submit: %s" m
      in
      (match submit small_spec with
      | ( Protocol.Accepted { resumed; points; _ } :: rest,
          Protocol.Done { points = done_points; complete; _ } ) ->
          Alcotest.(check int) "resumed" k resumed;
          Alcotest.(check int) "accepted points" total points;
          Alcotest.(check int) "done points" total done_points;
          Alcotest.(check bool) "complete" true complete;
          let results =
            List.filter_map
              (function
                | Protocol.Point { result; _ } -> Some result | _ -> None)
              rest
          in
          let index (r : Runner.point_result) = r.point.Sampler.index in
          Alcotest.(check (list int)) "recovered points stream first"
            (List.init k Fun.id)
            (List.filteri (fun i _ -> i < k) (List.map index results));
          Alcotest.(check (list int))
            "every point once" (List.init total Fun.id)
            (List.sort compare (List.map index results));
          List.iter
            (fun r ->
              Alcotest.(check (list int64))
                (Printf.sprintf "point %d bit-identical" (index r))
                (bits expected.(index r)) (bits r))
            results
      | _, final ->
          Alcotest.failf "unexpected session ending in %s"
            (Protocol.encode_response final));
      Alcotest.(check bool) "completed checkpoint removed" false
        (Sys.file_exists path);
      (* A complete header of another sweep is refused and left alone;
         a header torn inside [create] resumes as empty. *)
      let w =
        Checkpoint.create ~path { small_spec with Spec.seed = 99 }
          ~circuit:"RECT" ~points:total
      in
      Checkpoint.close w;
      let foreign = slurp path in
      (* The client reports a [Failed] frame as [Error]. *)
      (match Client.submit c ~spec_text:(Spec.to_string small_spec) () with
      | Error m ->
          Alcotest.(check bool) "failure names the mismatch" true
            (String.starts_with ~prefix:("checkpoint " ^ path) m)
      | Ok final ->
          Alcotest.failf "foreign checkpoint: got %s"
            (Protocol.encode_response final));
      Alcotest.(check string) "foreign file untouched" foreign (slurp path);
      write_file path (String.sub foreign 0 (String.length foreign / 2));
      (match submit small_spec with
      | ( Protocol.Accepted { resumed = 0; _ } :: _,
          Protocol.Done { complete = true; _ } ) -> ()
      | _, final ->
          Alcotest.failf "torn header: got %s"
            (Protocol.encode_response final));
      Alcotest.(check bool) "torn-header checkpoint completed and removed"
        false (Sys.file_exists path);
      (* SIGTERM on the first point drains the daemon mid-sweep. *)
      let drain_spec =
        { small_spec with Spec.name = "srv_drain"; samples = 120 }
      in
      let signalled = ref false in
      let on_point () =
        if not !signalled then begin
          signalled := true;
          Unix.kill pid Sys.sigterm
        end
      in
      (match submit ~on_point drain_spec with
      | _, Protocol.Done { points; complete = false; _ } -> (
          let kept = path_of drain_spec in
          Alcotest.(check bool) "drained checkpoint kept" true
            (Sys.file_exists kept);
          match Checkpoint.load ~path:kept drain_spec ~circuit:"RECT" with
          | Ok rs ->
              Alcotest.(check int) "kept every delivered point" points
                (List.length rs);
              Sys.remove kept
          | Error m -> Alcotest.failf "load: %s" m)
      | _, final ->
          Alcotest.failf "expected a drained done, got %s"
            (Protocol.encode_response final));
      Client.close c;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
      | _ -> Alcotest.fail "daemon killed");
      Unix.rmdir dir

(* ---- kill at a random instant, then resume ----

   A SIGKILL lands wherever it lands: mid-point, mid-batch, between a
   checkpoint append and its flush, mid-frame. Whatever the checkpoint
   then holds, resuming must give every point of examples/
   rect_tolerance.sweep (reference off) exactly as the golden fixture
   test_sweep pins them. *)

(* test_sweep's golden line: every value field, printed %.17g. *)
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

(* Next to the executable, where dune placed the (deps) copies, so the
   tests find them from any working directory. *)
let beside_exe path =
  Filename.concat (Filename.dirname Sys.executable_name) path

let rect_spec =
  lazy
    (match
       Spec.of_string (slurp (beside_exe "../examples/rect_tolerance.sweep"))
     with
    | Ok s -> { s with Spec.reference = false }
    | Error m -> Alcotest.failf "example spec: %s" m)

let check_golden what (results : Runner.point_result list) =
  let golden =
    String.split_on_char '\n'
      (slurp (beside_exe "fixtures/rect_tolerance_ref_off.golden"))
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let by_index (a : Runner.point_result) (b : Runner.point_result) =
    compare a.point.Sampler.index b.point.Sampler.index
  in
  Alcotest.(check (list string)) what golden
    (List.map golden_line (List.sort by_index results))

let kill_seeds = [ 1; 2; 3; 4; 5; 6 ]

(* [amsvp sweep --jobs 2 --checkpoint], SIGKILLed after a seeded random
   delay, then resumed: the same session in a forked process, killed
   anywhere between its start and a little past an uninterrupted run's
   length. *)
let test_kill_sweep_resume () =
  let spec = Lazy.force rect_spec in
  let ctx = Runner.prepare ~jobs:2 spec (resolve_exn spec) in
  let t0 = Unix.gettimeofday () in
  ignore (Runner.session ctx);
  let length = Unix.gettimeofday () -. t0 in
  let path = tmp (Printf.sprintf "amsvp_kill_sweep_%d.ckpt" (Unix.getpid ())) in
  List.iter
    (fun seed ->
      if Sys.file_exists path then Sys.remove path;
      let delay =
        Random.State.float (Random.State.make [| seed |]) (1.2 *. length)
      in
      (match Unix.fork () with
      | 0 ->
          (try ignore (Runner.session ~checkpoint:(`Fresh path) ctx)
           with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.sleepf delay;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid));
      let s, recovered, executed = resume_session ctx path in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: every point once" seed)
        (Array.length (Runner.ctx_points ctx))
        (recovered + executed);
      check_golden
        (Printf.sprintf "seed %d (killed after %.1f ms, %d recovered)" seed
           (delay *. 1e3) recovered)
        (Array.to_list s.Runner.points))
    kill_seeds;
  Sys.remove path

(* The daemon SIGKILLed mid-submit — on a seeded random point frame, or
   on the acceptance — then restarted on the same checkpoint directory:
   the resubmit recovers exactly what the checkpoint kept and streams
   every point as the golden fixture has it. *)
let test_kill_daemon_resubmit () =
  let spec = Lazy.force rect_spec in
  let total = Spec.point_count spec in
  let tag = Unix.getpid () in
  let dir = tmp (Printf.sprintf "amsvp_kill_daemon_%d" tag) in
  let sock = tmp (Printf.sprintf "amsvp_kill_daemon_%d.sock" tag) in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s.ckpt.jsonl" spec.Spec.name
         (Checkpoint.digest spec ~circuit:"RECT"))
  in
  let start () =
    if Sys.file_exists sock then Sys.remove sock;
    match Unix.fork () with
    | 0 ->
        (try
           Daemon.serve
             {
               (Daemon.default_config ~socket_path:sock) with
               workers = 2;
               checkpoint_dir = Some dir;
             }
         with _ -> Unix._exit 1);
        Unix._exit 0
    | pid ->
        wait_for_socket sock;
        pid
  in
  let spec_text = Spec.to_string spec in
  List.iter
    (fun seed ->
      let k =
        int_of_float
          (Random.State.float (Random.State.make [| seed |])
             (float_of_int (total + 1)))
      in
      let pid = start () in
      guard_daemon pid (fun () ->
          let c = Client.connect sock in
          let frames = ref 0 in
          let kill () =
            if !frames = k then
              try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
          in
          ignore
            (Client.submit c ~spec_text
               ~on_event:(function
                 | Protocol.Accepted _ -> kill ()
                 | Protocol.Point _ ->
                     incr frames;
                     kill ()
                 | _ -> ())
               ());
          Client.close c);
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      let kept =
        if not (Sys.file_exists path) then 0
        else
          match Checkpoint.load ~path spec ~circuit:"RECT" with
          | Ok rs -> List.length rs
          | Error m -> Alcotest.failf "load: %s" m
      in
      let pid = start () in
      guard_daemon pid (fun () ->
          let c = Client.connect sock in
          let resumed = ref (-1) and results = ref [] in
          (match
             Client.submit c ~spec_text
               ~on_event:(function
                 | Protocol.Accepted { resumed = n; _ } -> resumed := n
                 | Protocol.Point { result; _ } -> results := result :: !results
                 | _ -> ())
               ()
           with
          | Ok (Protocol.Done { complete = true; _ }) -> ()
          | Ok r ->
              Alcotest.failf "seed %d: final frame %s" seed
                (Protocol.encode_response r)
          | Error m -> Alcotest.failf "seed %d: resubmit: %s" seed m);
          Alcotest.(check int)
            (Printf.sprintf "seed %d: resumed what the checkpoint kept" seed)
            kept !resumed;
          check_golden
            (Printf.sprintf "seed %d (killed on frame %d, %d kept)" seed k kept)
            !results;
          Client.send c Protocol.Shutdown;
          ignore (Client.recv c);
          Client.close c;
          ignore (Unix.waitpid [] pid)))
    kill_seeds;
  Unix.rmdir dir

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
      let first = Client.submit c ~spec_text:(Spec.to_string doomed) () in
      (match first with
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
      (* The second submit meets the warm sweep and its stored screen:
         the same rejection, byte for byte. *)
      (match (first, Client.submit c ~spec_text:(Spec.to_string doomed) ()) with
      | Ok r1, Ok (Protocol.Rejected _ as r2) ->
          Alcotest.(check string) "second rejection identical"
            (Protocol.encode_response r1) (Protocol.encode_response r2)
      | _, Ok r ->
          Alcotest.failf "expected a second rejection, got %s"
            (Protocol.encode_response r)
      | _, Error m -> Alcotest.failf "second submit: %s" m);
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

(* A spec whose output names a node the circuit lacks is refused by
   the flow while the sweep is prepared: a structured [Rejected] frame
   carrying the AMS030 finding, not a [Failed] one, and the daemon
   keeps serving. *)
let test_daemon_unknown_output_rejected () =
  let sock = tmp (Printf.sprintf "amsvp_serve_uo_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  match Unix.fork () with
  | 0 ->
      (try
         Daemon.serve
           { (Daemon.default_config ~socket_path:sock) with workers = 1 }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      wait_for_socket sock;
      let c = Client.connect sock in
      let zig =
        { small_spec with Spec.name = "zig"; output = Some "V(zig,gnd)" }
      in
      (match Client.submit c ~spec_text:(Spec.to_string zig) () with
      | Ok (Protocol.Rejected { findings = [ f ]; _ }) ->
          Alcotest.(check string) "code" "AMS030" f.Diag.code;
          Alcotest.(check string) "message"
            "Flow: output V(zig,gnd) refers to unknown nodes" f.Diag.message
      | Ok r ->
          Alcotest.failf "expected one AMS030 rejection, got %s"
            (Protocol.encode_response r)
      | Error m -> Alcotest.failf "submit: %s" m);
      Client.send c Protocol.Ping;
      (match Client.recv c with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "daemon dead after rejection");
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
          Alcotest.test_case "resume cuts a torn tail" `Quick
            test_resume_cuts_torn_tail;
          Alcotest.test_case "torn header resumes, foreign is refused" `Quick
            test_resume_torn_and_foreign_header;
          Alcotest.test_case "truncate anywhere on a pool" `Quick
            test_truncate_anywhere_pool;
          Alcotest.test_case "resume determinism" `Quick
            test_resume_determinism;
          Alcotest.test_case "resume under other jobs" `Quick
            test_resume_other_jobs;
          Alcotest.test_case "sweep killed at random instants resumes" `Quick
            test_kill_sweep_resume;
        ]
        @ qt [ prop_truncate_anywhere ] );
      ("wire", qt [ prop_wire_identity; prop_torn_result_is_death ]);
      ( "daemon",
        [
          Alcotest.test_case "end-to-end session" `Quick test_daemon_session;
          Alcotest.test_case "connect on first sight of the socket" `Quick
            test_daemon_socket_ready;
          Alcotest.test_case "resume from the checkpoint dir" `Quick
            test_daemon_resume;
          Alcotest.test_case "killed mid-submit, restarted, resubmitted"
            `Quick test_kill_daemon_resubmit;
          Alcotest.test_case "eviction closes the pool" `Quick
            test_daemon_eviction;
          Alcotest.test_case "eviction beside a younger pool" `Quick
            test_daemon_eviction_younger_pool;
          Alcotest.test_case "jobs directive shares the warm sweep" `Quick
            test_daemon_jobs_directive_shares_ctx;
          Alcotest.test_case "timeout counters surfaced" `Quick
            test_daemon_timeout_counters;
          Alcotest.test_case "werror rejection is structured, daemon survives"
            `Quick test_daemon_werror_rejection;
          Alcotest.test_case "unknown output rejected with AMS030" `Quick
            test_daemon_unknown_output_rejected;
        ] );
    ]
