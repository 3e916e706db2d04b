(* Tests for traces, metrics, stimuli and the VCD export. *)

module Trace = Amsvp_util.Trace
module Metrics = Amsvp_util.Metrics
module Stimulus = Amsvp_util.Stimulus
module Vcd = Amsvp_util.Vcd
module Json = Amsvp_util.Json

let checkf tol = Alcotest.(check (float tol))

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

(* Trace *)

let test_trace_append_and_read () =
  let tr = Trace.create ~capacity:2 () in
  for i = 0 to 9 do
    Trace.add tr ~time:(float_of_int i) ~value:(float_of_int (i * i))
  done;
  Alcotest.(check int) "length" 10 (Trace.length tr);
  checkf 0.0 "time" 3.0 (Trace.time tr 3);
  checkf 0.0 "value" 9.0 (Trace.value tr 3);
  checkf 0.0 "last" 81.0 (Trace.last_value tr)

let test_trace_interpolation () =
  let tr = Trace.create () in
  Trace.add tr ~time:0.0 ~value:0.0;
  Trace.add tr ~time:1.0 ~value:10.0;
  Trace.add tr ~time:3.0 ~value:30.0;
  checkf 1e-12 "midpoint" 5.0 (Trace.sample_at tr 0.5);
  checkf 1e-12 "second segment" 20.0 (Trace.sample_at tr 2.0);
  checkf 1e-12 "before start clamps" 0.0 (Trace.sample_at tr (-1.0));
  checkf 1e-12 "after end clamps" 30.0 (Trace.sample_at tr 99.0)

let test_trace_resample () =
  let tr = Trace.of_fun (fun t -> 2.0 *. t) ~t0:0.0 ~dt:0.1 ~n:11 in
  let samples = Trace.resample tr ~t0:0.0 ~dt:0.25 ~n:4 in
  Alcotest.(check int) "count" 4 (Array.length samples);
  checkf 1e-12 "resampled" 1.0 samples.(2)

let test_trace_bounds_checked () =
  let tr = Trace.create () in
  Trace.add tr ~time:0.0 ~value:1.0;
  Alcotest.(check bool) "out of bounds" true
    (try
       ignore (Trace.value tr 1);
       false
     with Invalid_argument _ -> true);
  let empty = Trace.create () in
  Alcotest.(check bool) "empty last_value" true
    (try
       ignore (Trace.last_value empty);
       false
     with Invalid_argument _ -> true)

let test_trace_monotonic_time () =
  let tr = Trace.create () in
  Trace.add tr ~time:1.0 ~value:1.0;
  (* Equal timestamps are allowed (DE tracing records coincident samples). *)
  Trace.add tr ~time:1.0 ~value:2.0;
  Alcotest.check_raises "rewinding time rejected"
    (Invalid_argument "Trace.add: non-monotonic time") (fun () ->
      Trace.add tr ~time:0.5 ~value:3.0);
  Alcotest.(check int) "rejected sample not stored" 2 (Trace.length tr);
  Trace.add tr ~time:2.0 ~value:4.0;
  Alcotest.(check int) "usable after rejection" 3 (Trace.length tr)

let test_trace_in_place () =
  let tr = Trace.create ~capacity:2 () in
  Trace.add tr ~time:0.0 ~value:9.0;
  Trace.reserve tr 4;
  Alcotest.(check int) "reserve empties" 0 (Trace.length tr);
  let times, values = Trace.buffers tr in
  Array.iteri (fun i t -> times.(i) <- t; values.(i) <- 10.0 *. t)
    [| 0.0; 1.0; 1.0; 2.0 |];
  Trace.set_length tr 3;
  Alcotest.(check int) "length" 3 (Trace.length tr);
  checkf 0.0 "last" 10.0 (Trace.last_value tr);
  times.(2) <- 0.5;
  Alcotest.check_raises "set_length checks time order"
    (Invalid_argument "Trace.set_length: non-monotonic time") (fun () ->
      Trace.set_length tr 4);
  Alcotest.(check int) "rejected length not taken" 3 (Trace.length tr);
  Alcotest.check_raises "set_length past the storage"
    (Invalid_argument "Trace.set_length: outside the storage") (fun () ->
      Trace.set_length tr 5)

(* Metrics *)

let test_metrics_rmse () =
  checkf 1e-12 "identical" 0.0 (Metrics.rmse [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  checkf 1e-12 "constant offset" 1.0 (Metrics.rmse [| 0.0; 0.0 |] [| 1.0; 1.0 |])

let test_metrics_nrmse () =
  let reference = [| 0.0; 1.0; 2.0 |] in
  checkf 1e-12 "normalised" 0.5
    (Metrics.nrmse ~reference [| 1.0; 2.0; 3.0 |]);
  checkf 1e-12 "zero error on flat reference" 0.0
    (Metrics.nrmse ~reference:[| 5.0; 5.0 |] [| 5.0; 5.0 |]);
  Alcotest.(check bool) "flat reference with error" true
    (Metrics.nrmse ~reference:[| 5.0; 5.0 |] [| 6.0; 6.0 |] = infinity)

let test_metrics_length_mismatch () =
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Metrics.rmse [| 1.0 |] [| 1.0; 2.0 |]);
       false
     with Invalid_argument _ -> true)

(* Stimulus *)

let test_square_wave () =
  let f = Stimulus.square ~period:2.0 ~low:(-1.0) ~high:1.0 in
  checkf 0.0 "first half" 1.0 (f 0.5);
  checkf 0.0 "second half" (-1.0) (f 1.5);
  checkf 0.0 "periodic" 1.0 (f 2.5);
  checkf 0.0 "exact edge enters low" (-1.0) (f 1.0)

let test_pwl_waveform () =
  let f = Stimulus.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 0.0) ] in
  checkf 1e-12 "ramp" 1.0 (f 0.5);
  checkf 1e-12 "peak" 2.0 (f 1.0);
  checkf 1e-12 "descent" 1.0 (f 2.0);
  checkf 1e-12 "extrapolation" 0.0 (f 10.0);
  Alcotest.(check bool) "unsorted rejected" true
    (try
       ignore (Stimulus.pwl [ (1.0, 0.0); (0.0, 1.0) ] 0.5);
       false
     with Invalid_argument _ -> true)

let test_step_and_sine () =
  let st = Stimulus.step ~at:1.0 ~low:0.0 ~high:5.0 in
  checkf 0.0 "before" 0.0 (st 0.99);
  checkf 0.0 "after" 5.0 (st 1.0);
  let s = Stimulus.sine ~freq:1.0 ~amplitude:2.0 in
  checkf 1e-12 "sine at 0" 0.0 (s 0.0);
  checkf 1e-9 "sine peak" 2.0 (s 0.25);
  checkf 1e-9 "sine trough" (-2.0) (s 0.75)

(* VCD *)

let test_vcd_structure () =
  let a = Trace.create () in
  Trace.add a ~time:0.0 ~value:0.0;
  Trace.add a ~time:1e-9 ~value:1.5;
  Trace.add a ~time:2e-9 ~value:1.5;
  (* unchanged: no dump *)
  Trace.add a ~time:3e-9 ~value:0.25;
  let b = Trace.create () in
  Trace.add b ~time:0.0 ~value:7.0;
  let doc = Vcd.to_string ~timescale_ps:1000 [ ("sig_a", a); ("sig_b", b) ] in
  Alcotest.(check bool) "header" true (contains doc "$timescale 1000 ps $end");
  Alcotest.(check bool) "var a" true (contains doc "$var real 64 ! sig_a $end");
  Alcotest.(check bool) "var b" true
    (contains doc "$var real 64 \" sig_b $end");
  Alcotest.(check bool) "time 1" true (contains doc "#1\nr1.5 !");
  Alcotest.(check bool) "change-only dump" false (contains doc "#2");
  Alcotest.(check bool) "time 3" true (contains doc "#3\nr0.25 !")

let test_vcd_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Vcd.to_string []);
       false
     with Invalid_argument _ -> true);
  let t = Trace.create () in
  Trace.add t ~time:0.0 ~value:0.0;
  Alcotest.(check bool) "duplicate names rejected" true
    (try
       ignore (Vcd.to_string [ ("x", t); ("x", t) ]);
       false
     with Invalid_argument _ -> true)

(* Properties *)

let prop_sample_at_is_monotone_on_monotone_traces =
  QCheck.Test.make ~name:"interpolation preserves monotonicity" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 20) (float_range 0.0 10.0))
    (fun increments ->
      let tr = Trace.create () in
      let t = ref 0.0 and v = ref 0.0 in
      List.iter
        (fun dv ->
          t := !t +. 1.0;
          v := !v +. dv;
          Trace.add tr ~time:!t ~value:!v)
        increments;
      let ok = ref true in
      let prev = ref neg_infinity in
      for i = 0 to 50 do
        let s = Trace.sample_at tr (float_of_int i *. !t /. 50.0) in
        if s < !prev -. 1e-9 then ok := false;
        prev := s
      done;
      !ok)

(* JSON codec *)

let test_json_print_pinned () =
  let doc =
    Json.(
      Obj
        [
          ("s", Str "q\"b\\n\nr\rt\t\001\031\195\169");
          ("neg0", Num (-0.0));
          ("big", Num 1e300);
          ("nan", Num nan);
          ("inf", Arr [ Num infinity; Num neg_infinity ]);
          ("int", Num 1e15);
          ("tenth", Num 0.1);
          ("misc", Arr [ Null; Bool true; Bool false; Obj []; Arr [] ]);
        ])
  in
  Alcotest.(check string) "compact, one escape, one float rule"
    ({|{"s":"q\"b\\n\nr\rt\t\u0001\u001f|} ^ "\195\169"
   ^ {|","neg0":-0,"big":1.0000000000000001e+300,"nan":"NaN",|}
   ^ {|"inf":["Infinity","-Infinity"],"int":1000000000000000,|}
   ^ {|"tenth":0.10000000000000001,"misc":[null,true,false,{},[]]}|})
    (Json.print doc)

let all_bytes = String.init 256 Char.chr

let gen_json_string =
  let open QCheck.Gen in
  let chunk =
    oneof
      [
        map (String.make 1) char;
        oneofl
          [ "\""; "\\"; "\\u0041"; "\\u"; "\\\""; "\r\n"; "\000"; all_bytes ];
      ]
  in
  map (String.concat "") (list_size (int_bound 6) chunk)

let gen_json_float =
  QCheck.Gen.(
    oneof
      [
        float;
        map float_of_int int;
        oneofl
          [
            0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; 1e-310;
            max_float; -.max_float; nan; infinity; neg_infinity; 1e15; 0.1;
          ];
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) gen_json_float;
                 map (fun s -> Json.Str s) gen_json_string;
               ]
           in
           let sub = self (n / 4) in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) sub));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair gen_json_string sub)) );
               ]))

(* [expected] printed and parsed back gives [got]: finite numbers
   bit for bit, non-finite ones as the strings [Json.to_float] reads. *)
let rec json_roundtrips expected got =
  match (expected, got) with
  | Json.Num a, Json.Num b ->
      Float.is_finite a
      && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Json.Num a, Json.Str _ -> (
      (not (Float.is_finite a))
      &&
      match Json.to_float got with
      | Some b -> (Float.is_nan a && Float.is_nan b) || a = b
      | None -> false)
  | Json.Arr l, Json.Arr l' ->
      List.length l = List.length l' && List.for_all2 json_roundtrips l l'
  | Json.Obj l, Json.Obj l' ->
      List.length l = List.length l'
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_roundtrips v v')
           l l'
  | (Json.Null | Json.Bool _ | Json.Str _), _ -> expected = got
  | _ -> false

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (print v) = v" ~count:500
    (QCheck.make ~print:Json.print gen_json)
    (fun v -> json_roundtrips v (Json.parse (Json.print v)))

(* A document cut short — the torn last line a kill leaves — raises
   [Parse_error] at every cut, never another exception and never a
   value. The documents are arrays and objects, like every document
   the repo writes: a number cut short can still read as a number. *)
let prop_json_truncation =
  QCheck.Test.make ~name:"every truncation raises Parse_error" ~count:300
    (QCheck.make ~print:Json.print
       QCheck.Gen.(
         oneof
           [
             map (fun v -> Json.Arr [ v ]) gen_json;
             map2 (fun k v -> Json.Obj [ (k, v) ]) gen_json_string gen_json;
           ]))
    (fun v ->
      let text = Json.print v in
      for n = 0 to String.length text - 1 do
        match Json.parse (String.sub text 0 n) with
        | exception Json.Parse_error _ -> ()
        | _ -> QCheck.Test.fail_reportf "the first %d bytes parse" n
      done;
      true)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "trace",
        [
          Alcotest.test_case "append and read" `Quick test_trace_append_and_read;
          Alcotest.test_case "interpolation" `Quick test_trace_interpolation;
          Alcotest.test_case "resample" `Quick test_trace_resample;
          Alcotest.test_case "bounds" `Quick test_trace_bounds_checked;
          Alcotest.test_case "monotonic time" `Quick test_trace_monotonic_time;
          Alcotest.test_case "in-place recording" `Quick test_trace_in_place;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "rmse" `Quick test_metrics_rmse;
          Alcotest.test_case "nrmse" `Quick test_metrics_nrmse;
          Alcotest.test_case "length mismatch" `Quick test_metrics_length_mismatch;
        ] );
      ( "stimulus",
        [
          Alcotest.test_case "square" `Quick test_square_wave;
          Alcotest.test_case "pwl" `Quick test_pwl_waveform;
          Alcotest.test_case "step and sine" `Quick test_step_and_sine;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "validation" `Quick test_vcd_validation;
        ] );
      ( "json",
        [ Alcotest.test_case "print pinned" `Quick test_json_print_pinned ] );
      ( "properties",
        qt
          [
            prop_sample_at_is_monotone_on_monotone_traces;
            prop_json_roundtrip;
            prop_json_truncation;
          ]
      );
    ]
