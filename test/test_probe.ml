(* Tests for the observability layer: waveform taps (ring buffers,
   decimation, VCD/CSV export) and the online health monitors, plus the
   generic observe hook on the runners they attach to. *)

module Probe = Amsvp_probe.Probe
module Health = Amsvp_probe.Health
module Sfprogram = Amsvp_sf.Sfprogram
module Stimulus = Amsvp_util.Stimulus
module Trace = Amsvp_util.Trace
module Circuits = Amsvp_netlist.Circuits
module Engine = Amsvp_mna.Engine
module Wrap = Amsvp_sysc.Wrap

let y = Expr.potential "y" "gnd"
let u = Expr.signal "u"

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* ---- Tap ring buffers ---- *)

let feed set samples =
  List.iteri
    (fun i v -> Probe.sample set ~time:(float_of_int i) (fun _ -> v))
    samples

let test_tap_basic () =
  let set = Probe.create () in
  let tap = Probe.tap set y in
  feed set [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "seen" 3 (Probe.Tap.seen tap);
  Alcotest.(check int) "count" 3 (Probe.Tap.count tap);
  Alcotest.(check (array (float 0.0))) "values" [| 1.0; 2.0; 3.0 |]
    (Probe.Tap.values tap);
  Alcotest.(check (array (float 0.0))) "times" [| 0.0; 1.0; 2.0 |]
    (Probe.Tap.times tap)

let test_tap_wraparound () =
  (* Capacity 4, 10 samples: only the last 4 survive, oldest first. *)
  let set = Probe.create ~capacity:4 () in
  let tap = Probe.tap set y in
  feed set (List.init 10 (fun i -> float_of_int i));
  Alcotest.(check int) "seen" 10 (Probe.Tap.seen tap);
  Alcotest.(check int) "count" 4 (Probe.Tap.count tap);
  Alcotest.(check (array (float 0.0))) "last 4, oldest first"
    [| 6.0; 7.0; 8.0; 9.0 |]
    (Probe.Tap.values tap)

let test_tap_decimation () =
  (* every=3 over 10 offers retains offers 0,3,6,9. *)
  let set = Probe.create () in
  let tap = Probe.tap set ~every:3 y in
  feed set (List.init 10 (fun i -> float_of_int i));
  Alcotest.(check int) "retained" 4 (Probe.Tap.count tap);
  Alcotest.(check (array (float 0.0))) "decimated" [| 0.0; 3.0; 6.0; 9.0 |]
    (Probe.Tap.values tap)

let test_duplicate_tap_rejected () =
  let set = Probe.create () in
  ignore (Probe.tap set y);
  expect_invalid "duplicate tap name" (fun () -> Probe.tap set y)

let test_invalid_params () =
  expect_invalid "capacity 0" (fun () -> Probe.create ~capacity:0 ());
  expect_invalid "every 0" (fun () -> Probe.create ~every:0 ())

(* ---- Export ---- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_vcd_well_formed () =
  let set = Probe.create () in
  ignore (Probe.tap set y);
  ignore (Probe.tap set u);
  feed set [ 0.0; 0.5; 0.5; 1.0 ];
  let vcd = Probe.to_vcd set in
  let has s = Alcotest.(check bool) s true (contains vcd s) in
  has "$timescale";
  has "$enddefinitions";
  has "V(y,gnd)";
  has "u";
  (* Timestamps strictly increase. *)
  let last = ref (-1) in
  String.split_on_char '\n' vcd
  |> List.iter (fun line ->
         if String.length line > 1 && line.[0] = '#' then begin
           let t = int_of_string (String.sub line 1 (String.length line - 1)) in
           Alcotest.(check bool) "monotonic timestamps" true (t > !last);
           last := t
         end)

let test_vcd_empty_rejected () =
  expect_invalid "empty probe set" (fun () -> Probe.to_vcd (Probe.create ()))

let test_csv_long_format () =
  let set = Probe.create () in
  ignore (Probe.tap set y);
  feed set [ 1.5; 2.5 ];
  let lines =
    String.split_on_char '\n' (String.trim (Probe.to_csv set))
  in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "signal,time,value" (List.hd lines);
  Alcotest.(check bool) "row shape" true
    (String.length (List.nth lines 1) > 0
    && String.sub (List.nth lines 1) 0 9 = "V(y,gnd),")

(* ---- Health monitors ---- *)

let test_health_nan_watchdog () =
  let m = Health.create "sig" in
  Health.observe m ~time:0.0 1.0;
  Health.observe m ~time:1.0 nan;
  Health.observe m ~time:2.0 infinity;
  (match Health.issues m with
  | [ { Health.kind = Health.Nan_or_inf; time; _ } ] ->
      Alcotest.(check (float 0.0)) "first offending time" 1.0 time
  | _ -> Alcotest.fail "expected exactly one nan issue");
  Alcotest.(check bool) "unhealthy" false (Health.healthy m)

let test_health_amplitude () =
  let config =
    { Health.default_config with amplitude_limit = Some 10.0 }
  in
  let m = Health.create ~config "sig" in
  Health.observe m ~time:0.0 9.0;
  Health.observe m ~time:1.0 (-11.0);
  match Health.issues m with
  | [ { Health.kind = Health.Amplitude; time; value } ] ->
      Alcotest.(check (float 0.0)) "time" 1.0 time;
      Alcotest.(check (float 0.0)) "value" (-11.0) value
  | _ -> Alcotest.fail "expected one amplitude issue"

let test_health_stuck () =
  let config = { Health.default_config with stuck_after = Some 3 } in
  let m = Health.create ~config "sig" in
  Health.observe m ~time:0.0 1.0;
  Health.observe m ~time:1.0 2.0;
  Health.observe m ~time:2.0 2.0;
  Alcotest.(check bool) "two repeats fine" true (Health.healthy m);
  Health.observe m ~time:3.0 2.0;
  match Health.issues m with
  | [ { Health.kind = Health.Stuck; time; _ } ] ->
      Alcotest.(check (float 0.0)) "fires on 3rd repeat" 3.0 time
  | _ -> Alcotest.fail "expected one stuck issue"

let test_health_stuck_edges () =
  let config = { Health.default_config with stuck_after = Some 3 } in
  (* Signed zero: 0.0 and -0.0 compare equal under (=), so a signal
     flipping between them is still flat-lined and must fire. *)
  let m = Health.create ~config "sig" in
  Health.observe m ~time:0.0 0.0;
  Health.observe m ~time:1.0 (-0.0);
  Health.observe m ~time:2.0 0.0;
  (match Health.issues m with
  | [ { Health.kind = Health.Stuck; time; _ } ] ->
      Alcotest.(check (float 0.0)) "signed zeros count as one level" 2.0 time
  | _ -> Alcotest.fail "expected a stuck issue across signed zeros");
  (* A NaN sample is the NaN watchdog's business: it must neither
     extend nor reset the flat-line run it interrupts. *)
  let m2 = Health.create ~config "sig" in
  Health.observe m2 ~time:0.0 2.0;
  Health.observe m2 ~time:1.0 2.0;
  Health.observe m2 ~time:2.0 nan;
  Health.observe m2 ~time:3.0 2.0;
  (match Health.issues m2 with
  | [
   { Health.kind = Health.Nan_or_inf; _ };
   { Health.kind = Health.Stuck; time; _ };
  ] ->
      Alcotest.(check (float 0.0)) "run survives the NaN gap" 3.0 time
  | l -> Alcotest.failf "expected nan then stuck, got %d issue(s)"
           (List.length l));
  (* Both watchdogs latch: a longer flat-line with more NaN holes still
     reports each kind exactly once. *)
  Health.observe m2 ~time:4.0 nan;
  Health.observe m2 ~time:5.0 2.0;
  Alcotest.(check int) "one issue per kind" 2 (List.length (Health.issues m2))

let test_health_nrmse_budget () =
  let config =
    { Health.default_config with nrmse_budget = Some 0.1; nrmse_warmup = 2 }
  in
  let m = Health.create ~config "sig" in
  (* Perfect tracking through warm-up and beyond: healthy. *)
  for i = 0 to 9 do
    let v = float_of_int i in
    Health.observe_ref m ~time:v ~value:v ~reference:v
  done;
  Alcotest.(check bool) "tracking" true (Health.healthy m);
  (match Health.nrmse m with
  | Some e -> Alcotest.(check (float 1e-12)) "zero error" 0.0 e
  | None -> Alcotest.fail "nrmse expected");
  (* A diverging signal breaches the 10% budget. *)
  let m2 = Health.create ~config "sig" in
  for i = 0 to 9 do
    let v = float_of_int i in
    Health.observe_ref m2 ~time:v ~value:(v +. 5.0) ~reference:v
  done;
  match Health.issues m2 with
  | [ { Health.kind = Health.Nrmse_budget; _ } ] -> ()
  | _ -> Alcotest.fail "expected an nrmse-budget issue"

let test_health_config_validation () =
  expect_invalid "stuck_after 1" (fun () ->
      Health.create
        ~config:{ Health.default_config with stuck_after = Some 1 }
        "s");
  expect_invalid "negative amplitude" (fun () ->
      Health.create
        ~config:{ Health.default_config with amplitude_limit = Some (-1.0) }
        "s")

(* [replay] over recorded arrays must be indistinguishable from feeding
   the same samples one by one through [observe] / [observe_ref]: same
   issues (kind, time, value, order) and a bit-identical NRMSE, on
   traces mixing ordinary values, amplitude excursions, NaN/±inf,
   stuck runs, with each watchdog on or off; the sum of squares it
   returns is the in-order sum over the samples, bit for bit. *)
let gen_replay_case =
  let open QCheck.Gen in
  let sample =
    frequency
      [
        (6, float_range (-2.0) 2.0);
        (2, float_range (-1e3) 1e3);
        (1, oneofl [ nan; infinity; neg_infinity ]);
        (1, return 0.0);
      ]
  in
  (* Runs of repeated samples exercise the stuck-at watchdog. *)
  let run = pair sample (frequency [ (3, return 1); (1, int_range 2 8) ]) in
  let* runs = list_size (int_range 0 40) run in
  let values =
    Array.of_list (List.concat_map (fun (v, k) -> List.init k (fun _ -> v)) runs)
  in
  let n = Array.length values in
  let* steps = array_repeat n (oneofl [ 0.0; 1e-6; 2.5e-6 ]) in
  let times = Array.make n 0.0 in
  for i = 1 to n - 1 do
    times.(i) <- times.(i - 1) +. steps.(i)
  done;
  let* reference = opt (array_repeat n sample) in
  let* amplitude_limit = opt (float_range 0.5 5.0) in
  let* stuck_after = opt (int_range 2 6) in
  let* nrmse_budget = opt (float_range 1e-3 1.0) in
  let* nrmse_warmup = int_range 0 10 in
  let config =
    { Health.amplitude_limit; stuck_after; nrmse_budget; nrmse_warmup }
  in
  return (config, times, values, reference)

let print_replay_case (c, times, values, reference) =
  let arr a =
    String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  let opt f = function None -> "-" | Some v -> f v in
  Printf.sprintf
    "amplitude %s stuck %s budget %s warmup %d\ntimes %s\nvalues %s\nref %s"
    (opt (Printf.sprintf "%h") c.Health.amplitude_limit)
    (opt string_of_int c.Health.stuck_after)
    (opt (Printf.sprintf "%h") c.Health.nrmse_budget)
    c.Health.nrmse_warmup (arr times) (arr values) (opt arr reference)

let prop_replay_matches_observe =
  QCheck.Test.make ~name:"replay matches per-sample observe" ~count:500
    (QCheck.make ~print:print_replay_case gen_replay_case)
    (fun (config, times, values, reference) ->
      let n = Array.length values in
      let live = Health.create ~config "sig" in
      for i = 0 to n - 1 do
        match reference with
        | None -> Health.observe live ~time:times.(i) values.(i)
        | Some r ->
            Health.observe_ref live ~time:times.(i) ~value:values.(i)
              ~reference:r.(i)
      done;
      let replayed = Health.create ~config "sig" in
      let sum_sq = Health.replay replayed ~times ~values ?reference n in
      let bits = Int64.bits_of_float in
      let issue (i : Health.issue) =
        (Health.kind_label i.Health.kind, bits i.Health.time, bits i.Health.value)
      in
      let state m =
        (List.map issue (Health.issues m), Option.map bits (Health.nrmse m))
      in
      state live = state replayed
      && bits sum_sq
         = bits (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 values))

let test_health_replay_short_arrays () =
  let m = Health.create "s" in
  expect_invalid "values shorter than n" (fun () ->
      Health.replay m ~times:[| 0.0; 1.0 |] ~values:[| 1.0 |] 2);
  expect_invalid "reference shorter than n" (fun () ->
      Health.replay m ~times:[| 0.0; 1.0 |] ~values:[| 1.0; 2.0 |]
        ~reference:[| 1.0 |] 2)

(* ---- Observe hook on the runners ---- *)

let test_observe_through_runner () =
  (* y_t = u_t over 10 steps of dt=1: the tap sees the initial sample
     plus one sample per step, all equal to the stimulus. *)
  let p =
    Sfprogram.make ~name:"t" ~inputs:[ "u" ] ~outputs:[ y ]
      ~assignments:[ { Sfprogram.target = y; expr = Expr.var u } ]
      ~dt:1.0
  in
  let set = Probe.create () in
  let tap = Probe.tap set y in
  let r = Sfprogram.Runner.create p in
  let trace =
    Sfprogram.Runner.run r
      ~stimuli:[| Stimulus.constant 2.0 |]
      ~t_stop:10.0 ~observe:(Probe.observer set) ()
  in
  Alcotest.(check int) "one sample per trace point" (Trace.length trace)
    (Probe.Tap.count tap);
  (* The t=0 sample is the runner's initial state (0); every stepped
     sample equals the constant stimulus. *)
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) "stimulus value"
        (if i = 0 then 0.0 else 2.0)
        v)
    (Probe.Tap.values tap)

let test_observe_through_spice_engine () =
  (* The MNA reader evaluates any circuit quantity: tap both the output
     potential and the input-source potential of the rectifier. *)
  let tc = Option.get (Circuits.by_name "RECT") in
  let set = Probe.create () in
  let out_tap = Probe.tap set tc.Circuits.output in
  let in_tap = Probe.tap set (Expr.potential "in" "gnd") in
  let res =
    Engine.spice_like tc.Circuits.circuit ~inputs:tc.Circuits.stimuli
      ~output:tc.Circuits.output ~dt:1e-5 ~t_stop:1e-3
      ~observe:(Probe.observer set)
  in
  let n = Trace.length res.Engine.trace in
  Alcotest.(check int) "out tap follows the trace" n
    (Probe.Tap.count out_tap);
  Alcotest.(check int) "in tap too" n (Probe.Tap.count in_tap);
  (* The tapped output equals the recorded trace sample for sample. *)
  let vals = Probe.Tap.values out_tap in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-12)) "tap = trace" (Trace.value res.Engine.trace i) v)
    vals;
  (* The input tap saw the sine swing both ways. *)
  let swing =
    Array.fold_left (fun acc v -> max acc (abs_float v)) 0.0
      (Probe.Tap.values in_tap)
  in
  Alcotest.(check bool) "input amplitude" true (swing > 0.5)

let test_observe_through_eln () =
  let tc = Option.get (Circuits.by_name "RC1") in
  let set = Probe.create () in
  let tap = Probe.tap set tc.Circuits.output in
  let res =
    Wrap.run_eln tc.Circuits.circuit ~inputs:tc.Circuits.stimuli
      ~output:tc.Circuits.output ~dt:1e-5 ~t_stop:1e-3
      ~observe:(Probe.observer set)
  in
  Alcotest.(check int) "tap follows the trace"
    (Trace.length res.Wrap.trace)
    (Probe.Tap.count tap)

let test_watch_via_observer () =
  (* A monitor attached to the probe set is fed by the same hook. *)
  let p =
    Sfprogram.make ~name:"t" ~inputs:[ "u" ] ~outputs:[ y ]
      ~assignments:[ { Sfprogram.target = y; expr = Expr.var u } ]
      ~dt:1.0
  in
  let set = Probe.create () in
  let mon =
    Probe.watch set
      ~config:{ Health.default_config with amplitude_limit = Some 1.5 }
      y
  in
  let r = Sfprogram.Runner.create p in
  ignore
    (Sfprogram.Runner.run r
       ~stimuli:[| Stimulus.constant 2.0 |]
       ~t_stop:5.0 ~observe:(Probe.observer set) ());
  match Health.issues mon with
  | [ { Health.kind = Health.Amplitude; _ } ] -> ()
  | _ -> Alcotest.fail "expected the amplitude watchdog to fire"

let () =
  Alcotest.run "probe"
    [
      ( "taps",
        [
          Alcotest.test_case "basic" `Quick test_tap_basic;
          Alcotest.test_case "wrap-around" `Quick test_tap_wraparound;
          Alcotest.test_case "decimation" `Quick test_tap_decimation;
          Alcotest.test_case "duplicate rejected" `Quick
            test_duplicate_tap_rejected;
          Alcotest.test_case "invalid params" `Quick test_invalid_params;
        ] );
      ( "export",
        [
          Alcotest.test_case "vcd well-formed" `Quick test_vcd_well_formed;
          Alcotest.test_case "vcd empty rejected" `Quick
            test_vcd_empty_rejected;
          Alcotest.test_case "csv long format" `Quick test_csv_long_format;
        ] );
      ( "health",
        [
          Alcotest.test_case "nan watchdog" `Quick test_health_nan_watchdog;
          Alcotest.test_case "amplitude" `Quick test_health_amplitude;
          Alcotest.test_case "stuck-at" `Quick test_health_stuck;
          Alcotest.test_case "stuck-at edges" `Quick test_health_stuck_edges;
          Alcotest.test_case "nrmse budget" `Quick test_health_nrmse_budget;
          Alcotest.test_case "config validation" `Quick
            test_health_config_validation;
          Alcotest.test_case "replay rejects short arrays" `Quick
            test_health_replay_short_arrays;
          QCheck_alcotest.to_alcotest prop_replay_matches_observe;
        ] );
      ( "observe hook",
        [
          Alcotest.test_case "signal-flow runner" `Quick
            test_observe_through_runner;
          Alcotest.test_case "spice engine" `Quick
            test_observe_through_spice_engine;
          Alcotest.test_case "eln kernel" `Quick test_observe_through_eln;
          Alcotest.test_case "watch via observer" `Quick
            test_watch_via_observer;
        ] );
    ]
