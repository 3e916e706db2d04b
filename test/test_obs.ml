(* Tests for the Amsvp_obs instrumentation layer: span recorder,
   metrics registry, and sink output (Chrome trace JSON, Prometheus
   text).  The recorder is global state, so every test starts from
   [Obs.reset] and an explicit enable/disable. *)

module Obs = Amsvp_obs.Obs
module Json = Amsvp_util.Json

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let fresh () =
  Obs.reset ();
  Obs.disable ()

(* Spans *)

let test_span_nesting () =
  fresh ();
  Obs.enable ();
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span ~cat:"t" "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "result threaded through" 42 r;
  Alcotest.(check int) "two spans" 2 (Obs.span_count ());
  match Obs.spans () with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner completes first" "inner" inner.Obs.name;
      Alcotest.(check string) "outer completes last" "outer" outer.Obs.name;
      Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
      Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
      Alcotest.(check string) "category" "t" inner.Obs.cat;
      Alcotest.(check bool) "inner starts after outer" true
        (inner.Obs.start_ns >= outer.Obs.start_ns);
      Alcotest.(check bool) "inner nested in outer duration" true
        (inner.Obs.start_ns + inner.Obs.dur_ns
        <= outer.Obs.start_ns + outer.Obs.dur_ns)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_disabled_noop () =
  fresh ();
  let ran = ref false in
  let r = Obs.with_span "ghost" (fun () -> ran := true; 7) in
  Obs.instant "ghost-instant";
  Alcotest.(check int) "result" 7 r;
  Alcotest.(check bool) "body still runs" true !ran;
  Alcotest.(check int) "nothing recorded" 0 (Obs.span_count ())

let test_timed_always_measures () =
  fresh ();
  (* Recorder off: duration still measured, no span stored. *)
  let (), dt = Obs.timed "work" (fun () -> Sys.opaque_identity (ignore (Sys.opaque_identity 0))) in
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0);
  Alcotest.(check int) "no span when disabled" 0 (Obs.span_count ());
  (* Recorder on: same call also records. *)
  Obs.enable ();
  let v, dt' = Obs.timed "work" (fun () -> 5) in
  Alcotest.(check int) "value" 5 v;
  Alcotest.(check bool) "non-negative duration" true (dt' >= 0.0);
  Alcotest.(check int) "span when enabled" 1 (Obs.span_count ())

let test_span_exception_path () =
  fresh ();
  Obs.enable ();
  (try Obs.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded on raise" 1 (Obs.span_count ());
  (* Depth unwinds: the next span is top-level again. *)
  Obs.with_span "after" (fun () -> ());
  match Obs.spans () with
  | [ _; after ] -> Alcotest.(check int) "depth unwound" 0 after.Obs.depth
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* Metrics *)

let test_counter_semantics () =
  fresh ();
  let c = Obs.Counter.make ~help:"test" "test_obs_counter" in
  let c' = Obs.Counter.make "test_obs_counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c' 4;
  Alcotest.(check int) "find-or-create shares state" 5 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test_obs_counter" (Obs.Counter.name c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
      Obs.Counter.add c (-1));
  Alcotest.(check int) "value unchanged after rejection" 5
    (Obs.Counter.value c)

let test_metric_kind_clash () =
  fresh ();
  ignore (Obs.Gauge.make "test_obs_kind_clash");
  Alcotest.(check bool) "counter over gauge rejected" true
    (try
       ignore (Obs.Counter.make "test_obs_kind_clash");
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  fresh ();
  let g = Obs.Gauge.make "test_obs_gauge" in
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "set/value" 2.5 (Obs.Gauge.value g)

let test_histogram_semantics () =
  fresh ();
  let h =
    Obs.Histogram.make ~buckets:[| 1.0; 5.0; 10.0 |] "test_obs_histogram"
  in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 3.0; 10.0; 100.0 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 114.5 (Obs.Histogram.sum h);
  (* le semantics: a sample equal to a bound lands in that bucket;
     counts are cumulative and end with (+Inf, total). *)
  (match Obs.Histogram.bucket_counts h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
      Alcotest.(check (float 0.0)) "bound 1" 1.0 b1;
      Alcotest.(check int) "le 1" 2 c1;
      Alcotest.(check (float 0.0)) "bound 5" 5.0 b2;
      Alcotest.(check int) "le 5" 3 c2;
      Alcotest.(check (float 0.0)) "bound 10" 10.0 b3;
      Alcotest.(check int) "le 10" 4 c3;
      Alcotest.(check bool) "+Inf bound" true (binf = infinity);
      Alcotest.(check int) "le +Inf" 5 cinf
  | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l));
  Alcotest.(check bool) "non-ascending buckets rejected" true
    (try
       ignore
         (Obs.Histogram.make ~buckets:[| 2.0; 1.0 |] "test_obs_histogram_bad");
       false
     with Invalid_argument _ -> true)

let test_histogram_boundaries () =
  (* Regression pin for the documented bucket-boundary semantics:
     bucket i covers (bounds[i-1], bounds[i]] — a value exactly on an
     upper bound counts in that bucket, one ulp above spills into the
     next, and NaN lands in the +Inf overflow bucket. *)
  fresh ();
  let h =
    Obs.Histogram.make ~buckets:[| 1.0; 2.0 |] "test_obs_histogram_bounds"
  in
  let just_above x = x +. (x *. epsilon_float) in
  List.iter (Obs.Histogram.observe h)
    [ 1.0; just_above 1.0; 2.0; just_above 2.0; nan ];
  match Obs.Histogram.bucket_counts h with
  | [ (_, le1); (_, le2); (binf, leinf) ] ->
      (* le 1: exactly the sample sitting on the bound. *)
      Alcotest.(check int) "value on bound 1 is inclusive" 1 le1;
      (* le 2: adds 1+eps and the sample on bound 2, not 2+eps. *)
      Alcotest.(check int) "value on bound 2 is inclusive" 3 le2;
      Alcotest.(check bool) "+Inf bound" true (binf = infinity);
      (* 2+eps and NaN only reach the overflow bucket. *)
      Alcotest.(check int) "overflow gets the rest" 5 leinf
  | l -> Alcotest.failf "expected 3 buckets, got %d" (List.length l)

let test_histogram_non_finite () =
  (* Regression for the full non-finite family: -Inf satisfies every
     [v <= bound] so it lands in the first bucket, +Inf and NaN walk
     past all bounds into overflow, and [count] stays consistent with
     the bucket totals — a monitoring read never sees a sample
     "disappear" because it was not a number. *)
  fresh ();
  let h =
    Obs.Histogram.make ~buckets:[| 1.0; 2.0 |] "test_obs_histogram_nonfinite"
  in
  List.iter (Obs.Histogram.observe h) [ neg_infinity; infinity; nan; 1.5 ];
  Alcotest.(check int) "count includes non-finite" 4 (Obs.Histogram.count h);
  (match Obs.Histogram.bucket_counts h with
  | [ (_, le1); (_, le2); (_, leinf) ] ->
      Alcotest.(check int) "-Inf in first bucket" 1 le1;
      Alcotest.(check int) "1.5 joins cumulatively" 2 le2;
      Alcotest.(check int) "+Inf and NaN in overflow" 4 leinf
  | l -> Alcotest.failf "expected 3 buckets, got %d" (List.length l));
  Alcotest.(check bool) "sum is poisoned, by design" true
    (Float.is_nan (Obs.Histogram.sum h))

(* The running sum lives in a float-only cell, so recording a sample
   boxes nothing. The samples are preallocated constants: the caller's
   own boxing of a computed argument is not what is measured. *)
let test_histogram_observe_allocation_free () =
  fresh ();
  let h =
    Obs.Histogram.make ~buckets:[| 1.0; 2.0 |] "test_obs_histogram_alloc"
  in
  let a = 0.5 and b = 1.5 and c = 7.0 in
  Obs.Histogram.observe h a;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Histogram.observe h a;
    Obs.Histogram.observe h b;
    Obs.Histogram.observe h c
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words of 3000 observe" 0.0 words;
  Alcotest.(check int) "count" 3001 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "sum" 9000.5 (Obs.Histogram.sum h)

let test_reset () =
  fresh ();
  Obs.enable ();
  let c = Obs.Counter.make "test_obs_reset_counter" in
  let h = Obs.Histogram.make "test_obs_reset_histogram" in
  Obs.Counter.add c 3;
  Obs.Histogram.observe h 1.0;
  Obs.with_span "s" (fun () -> ());
  Obs.reset ();
  Alcotest.(check int) "spans cleared" 0 (Obs.span_count ());
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Obs.Histogram.count h);
  Alcotest.(check bool) "enable flag untouched" true (Obs.enabled ());
  let c' = Obs.Counter.make "test_obs_reset_counter" in
  Obs.Counter.incr c';
  Alcotest.(check int) "registration survives reset" 1 (Obs.Counter.value c)

(* Sinks *)

let test_chrome_trace_json () =
  fresh ();
  Obs.enable ();
  Obs.with_span ~cat:"flow"
    ~args:[ ("model", "rc \"ladder\"\n") ]
    "flow.abstract"
    (fun () -> Obs.with_span "flow.solve" (fun () -> ()));
  Obs.instant "marker";
  let doc = Json.parse (Obs.chrome_trace ()) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  (* Metadata event + 2 spans + 1 instant. *)
  Alcotest.(check bool) "non-empty traceEvents" true (List.length events >= 4);
  let phases =
    List.filter_map
      (fun e ->
        match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
      events
  in
  Alcotest.(check int) "every event has a phase" (List.length events)
    (List.length phases);
  Alcotest.(check bool) "has complete events" true (List.mem "X" phases);
  Alcotest.(check bool) "has instant event" true (List.mem "i" phases);
  let solve =
    List.find_opt
      (fun e -> Json.member "name" e = Some (Json.Str "flow.solve"))
      events
  in
  (match solve with
  | Some e ->
      (match Json.member "ts" e with
      | Some (Json.Num ts) ->
          Alcotest.(check bool) "ts is a number" true (ts >= 0.0)
      | _ -> Alcotest.fail "ts missing");
      (match Json.member "dur" e with
      | Some (Json.Num d) ->
          Alcotest.(check bool) "dur is a number" true (d >= 0.0)
      | _ -> Alcotest.fail "dur missing")
  | None -> Alcotest.fail "flow.solve event missing");
  (* The args value above contains a quote, a backslash-sensitive
     string and a newline: the parser round-trips it only if escaping
     is correct. *)
  let abstract =
    List.find
      (fun e -> Json.member "name" e = Some (Json.Str "flow.abstract"))
      events
  in
  match Json.member "args" abstract with
  | Some (Json.Obj [ ("model", Json.Str v) ]) ->
      Alcotest.(check string) "args escaped and recovered" "rc \"ladder\"\n" v
  | _ -> Alcotest.fail "args object missing"

let test_prometheus_output () =
  fresh ();
  let c = Obs.Counter.make ~help:"a test counter" "test_obs prom.counter" in
  Obs.Counter.add c 7;
  let h =
    Obs.Histogram.make ~buckets:[| 1.0; 2.0 |] "test_obs_prom_histogram"
  in
  Obs.Histogram.observe h 1.5;
  Obs.enable ();
  Obs.with_span "flow.solve" (fun () -> ());
  let out = Obs.prometheus () in
  (* Metric names are sanitised to [a-zA-Z0-9_:]. *)
  Alcotest.(check bool) "counter line" true
    (contains out "test_obs_prom_counter 7");
  Alcotest.(check bool) "counter TYPE" true
    (contains out "# TYPE test_obs_prom_counter counter");
  Alcotest.(check bool) "counter HELP" true
    (contains out "# HELP test_obs_prom_counter a test counter");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (contains out "test_obs_prom_histogram_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "histogram count" true
    (contains out "test_obs_prom_histogram_count 1");
  Alcotest.(check bool) "histogram sum" true
    (contains out "test_obs_prom_histogram_sum 1.5");
  Alcotest.(check bool) "span aggregate calls" true
    (contains out "amsvp_span_flow_solve_calls_total 1");
  Alcotest.(check bool) "span aggregate seconds" true
    (contains out "amsvp_span_flow_solve_seconds_total")

let test_prometheus_hostile_labels () =
  fresh ();
  (* Exposition-format escaping: label values may contain backslash,
     double quote and newline, each of which must come out
     backslash-escaped; HELP text escapes backslash and newline only.
     A label value that merely LOOKS escaped must round-trip
     unchanged. *)
  let c =
    Obs.Counter.make ~help:"line one\nline two \\ backslash"
      ~labels:
        [
          ("path", "C:\\temp\\\"quoted\" file\nsecond line");
          ("already", "looks \\n escaped");
        ]
      "test_obs_hostile_counter"
  in
  Obs.Counter.add c 3;
  let g =
    Obs.Gauge.make ~labels:[ ("k", "v\"\n\\") ] "test_obs_hostile_gauge"
  in
  Obs.Gauge.set g 1.0;
  let out = Obs.prometheus () in
  Alcotest.(check bool) "label value escaped" true
    (contains out
       "test_obs_hostile_counter{path=\"C:\\\\temp\\\\\\\"quoted\\\" \
        file\\nsecond line\",already=\"looks \\\\n escaped\"} 3");
  Alcotest.(check bool) "help escaped" true
    (contains out
       "# HELP test_obs_hostile_counter line one\\nline two \\\\ backslash");
  Alcotest.(check bool) "gauge label escaped" true
    (contains out "test_obs_hostile_gauge{k=\"v\\\"\\n\\\\\"} 1");
  (* No raw newline may survive into the exposition: a torn sample
     line corrupts every parser downstream. The hostile counter must
     occupy exactly its HELP, TYPE and sample lines — a tear would
     strand the value on a line without the metric name. *)
  let lines = String.split_on_char '\n' out in
  let named =
    List.length
      (List.filter (fun l -> contains l "test_obs_hostile_counter") lines)
  in
  Alcotest.(check int) "exactly HELP + TYPE + sample lines" 3 named;
  List.iter
    (fun l ->
      Alcotest.(check bool)
        ("no stray continuation line: " ^ l)
        false
        (contains l "second line" && not (contains l "test_obs_hostile")))
    lines

let test_summary_output () =
  fresh ();
  let c = Obs.Counter.make "test_obs_summary_counter" in
  Obs.Counter.add c 2;
  Obs.enable ();
  Obs.with_span "phase.a" (fun () -> ());
  Obs.with_span "phase.a" (fun () -> ());
  let out = Obs.summary () in
  Alcotest.(check bool) "mentions span" true (contains out "phase.a");
  Alcotest.(check bool) "mentions counter" true
    (contains out "test_obs_summary_counter")

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
          Alcotest.test_case "timed" `Quick test_timed_always_measures;
          Alcotest.test_case "exception path" `Quick test_span_exception_path;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "kind clash" `Quick test_metric_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "histogram boundaries" `Quick
            test_histogram_boundaries;
          Alcotest.test_case "histogram non-finite" `Quick
            test_histogram_non_finite;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_histogram_observe_allocation_free;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
          Alcotest.test_case "prometheus" `Quick test_prometheus_output;
          Alcotest.test_case "prometheus hostile labels" `Quick
            test_prometheus_hostile_labels;
          Alcotest.test_case "summary" `Quick test_summary_output;
        ] );
    ]
