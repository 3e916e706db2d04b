(* Tests for the discrete-event kernel, the TDF layer and the MoC
   wrappers. *)

module De = Amsvp_sysc.De
module Tdf = Amsvp_sysc.Tdf
module Wrap = Amsvp_sysc.Wrap
module Circuits = Amsvp_netlist.Circuits
module Engine = Amsvp_mna.Engine
module Flow = Amsvp_core.Flow
module Trace = Amsvp_util.Trace
module Metrics = Amsvp_util.Metrics

(* DE kernel *)

let test_timed_ordering () =
  let k = De.create () in
  let log = ref [] in
  let mark name = log := name :: !log in
  let e1 = De.Event.create k "e1" and e2 = De.Event.create k "e2" in
  let p1 = De.spawn k ~name:"p1" (fun () -> mark "p1") in
  let p2 = De.spawn k ~name:"p2" (fun () -> mark "p2") in
  De.Event.sensitize p1 e1;
  De.Event.sensitize p2 e2;
  De.Event.notify_delayed e2 ~delay_ps:100;
  De.Event.notify_delayed e1 ~delay_ps:50;
  De.run k;
  Alcotest.(check (list string)) "time order wins over notify order"
    [ "p1"; "p2" ] (List.rev !log);
  Alcotest.(check int) "time advanced" 100 (De.now_ps k)

let test_signal_update_semantics () =
  (* A write is not visible within the same delta cycle. *)
  let k = De.create () in
  let s = De.Signal.int_signal k ~name:"s" 0 in
  let seen_same_delta = ref (-1) in
  let seen_next_delta = ref (-1) in
  let e = De.Event.create k "go" in
  let writer =
    De.spawn k ~name:"writer" (fun () ->
        De.Signal.write s 42;
        seen_same_delta := De.Signal.read s)
  in
  De.Event.sensitize writer e;
  let reader =
    De.spawn k ~name:"reader" (fun () -> seen_next_delta := De.Signal.read s)
  in
  De.Event.sensitize reader (De.Signal.change_event s);
  De.Event.notify_delayed e ~delay_ps:10;
  De.run k;
  Alcotest.(check int) "old value in same delta" 0 !seen_same_delta;
  Alcotest.(check int) "new value next delta" 42 !seen_next_delta

let test_no_event_on_unchanged_write () =
  let k = De.create () in
  let s = De.Signal.int_signal k ~name:"s" 7 in
  let fired = ref 0 in
  let watcher = De.spawn k ~name:"w" (fun () -> incr fired) in
  De.Event.sensitize watcher (De.Signal.change_event s);
  let e = De.Event.create k "go" in
  let writer = De.spawn k ~name:"writer" (fun () -> De.Signal.write s 7) in
  De.Event.sensitize writer e;
  De.Event.notify_delayed e ~delay_ps:5;
  De.run k;
  Alcotest.(check int) "no change event" 0 !fired

let test_notify_collapse () =
  let k = De.create () in
  let e = De.Event.create k "e" in
  let count = ref 0 in
  let p = De.spawn k ~name:"p" (fun () -> incr count) in
  De.Event.sensitize p e;
  De.Event.notify_delayed e ~delay_ps:10;
  De.Event.notify_delayed e ~delay_ps:10;
  De.Event.notify_delayed e ~delay_ps:20;
  De.run k;
  (* Same-instant duplicates collapse; the later (20 ps) notification
     was overridden by the pending earlier one. *)
  Alcotest.(check int) "single activation" 1 !count

let test_run_until_boundary () =
  let k = De.create () in
  let e = De.Event.create k "e" in
  let count = ref 0 in
  let p =
    De.spawn k ~name:"p" (fun () ->
        incr count;
        De.Event.notify_delayed e ~delay_ps:10)
  in
  De.Event.sensitize p e;
  De.Event.notify_delayed e ~delay_ps:10;
  De.run_until k ~ps:55;
  (* Activations at 10,20,30,40,50. *)
  Alcotest.(check int) "five activations" 5 !count;
  Alcotest.(check int) "clock at last event" 50 (De.now_ps k)

let test_stats_counted () =
  let k = De.create () in
  let s = De.Signal.float_signal k ~name:"s" 0.0 in
  let e = De.Event.create k "e" in
  let p =
    De.spawn k ~name:"p" (fun () ->
        De.Signal.write s (De.now k);
        if De.now_ps k < 100 then De.Event.notify_delayed e ~delay_ps:10)
  in
  De.Event.sensitize p e;
  De.Event.notify_delayed e ~delay_ps:10;
  De.run k;
  let st = De.stats k in
  Alcotest.(check int) "activations" 10 st.De.activations;
  Alcotest.(check bool) "updates counted" true (st.De.signal_updates >= 10)

(* Activation-order pins: the kernel's queues may change representation,
   but never the order in which processes run. *)

let stats_list k =
  let st = De.stats k in
  [ st.De.activations; st.De.delta_cycles; st.De.timed_notifications;
    st.De.signal_updates ]

let test_same_instant_order () =
  (* Timed notifications interleaved across two instants, one made
     stale by an earlier re-notification, and more pushed from inside
     a process: same-instant subscribers run in heap-pop order. *)
  let k = De.create () in
  let log = ref [] in
  let evs = Array.init 6 (fun i -> De.Event.create k (Printf.sprintf "e%d" i)) in
  let mark name = log := Printf.sprintf "%s@%d" name (De.now_ps k) :: !log in
  Array.iteri
    (fun i ev ->
      let p = De.spawn k ~name:"p" (fun () -> mark (Printf.sprintf "p%d" i)) in
      De.Event.sensitize p ev)
    evs;
  let late = De.spawn k ~name:"late" (fun () -> mark "late") in
  De.Event.sensitize late evs.(2);
  let kick =
    De.spawn k ~name:"kick" (fun () ->
        mark "kick";
        De.Event.notify_delayed evs.(1) ~delay_ps:50;
        De.Event.notify_delayed evs.(4) ~delay_ps:50)
  in
  De.Event.sensitize kick evs.(0);
  De.Event.notify_delayed evs.(0) ~delay_ps:200;
  List.iter
    (fun (i, d) -> De.Event.notify_delayed evs.(i) ~delay_ps:d)
    [ (3, 100); (0, 50); (5, 100); (1, 100); (4, 50); (2, 100); (5, 100) ];
  De.run k;
  Alcotest.(check (list string)) "activation order"
    [ "kick@50"; "p0@50"; "p4@50"; "p3@100"; "p4@100"; "p1@100"; "p5@100";
      "late@100"; "p2@100" ]
    (List.rev !log);
  Alcotest.(check (list int)) "stats" [ 9; 2; 8; 0 ] (stats_list k)

let test_update_delta_order () =
  (* Signal writes become delta notifications in update order; a
     reader's own write primes a further delta cycle. *)
  let k = De.create () in
  let log = ref [] in
  let mark name = log := Printf.sprintf "%s/%d" name (De.stats k).De.delta_cycles :: !log in
  let a = De.Signal.int_signal k ~name:"a" 0
  and b = De.Signal.int_signal k ~name:"b" 0
  and c = De.Signal.int_signal k ~name:"c" 0
  and d = De.Signal.int_signal k ~name:"d" 0 in
  let go = De.Event.create k "go" in
  let w1 =
    De.spawn k ~name:"w1" (fun () ->
        mark "w1";
        De.Signal.write c 1;
        De.Signal.write a 1;
        De.Signal.write b 0;
        De.Signal.write a 2)
  in
  let w2 =
    De.spawn k ~name:"w2" (fun () ->
        mark "w2";
        De.Signal.write b 3)
  in
  De.Event.sensitize w1 go;
  De.Event.sensitize w2 go;
  let reader name s =
    let p = De.spawn k ~name (fun () -> mark name) in
    De.Event.sensitize p (De.Signal.change_event s);
    p
  in
  let ra =
    De.spawn k ~name:"ra" (fun () ->
        mark (Printf.sprintf "ra=%d" (De.Signal.read a));
        De.Signal.write d (De.Signal.read a))
  in
  De.Event.sensitize ra (De.Signal.change_event a);
  ignore (reader "rb" b);
  ignore (reader "rc" c);
  ignore (reader "rd" d);
  De.Event.notify_delayed go ~delay_ps:10;
  De.run k;
  Alcotest.(check (list string)) "activation order"
    [ "w2/1"; "w1/1"; "rc/2"; "ra=2/2"; "rd/3" ]
    (List.rev !log);
  Alcotest.(check (list int)) "stats" [ 5; 3; 1; 4 ] (stats_list k)

let test_two_events_one_delta () =
  (* A process sensitive to two events that fire in the same delta
     cycle runs once in it, timed or delta-notified. *)
  let k = De.create () in
  let e1 = De.Event.create k "e1" and e2 = De.Event.create k "e2" in
  let runs = ref [] in
  let p =
    De.spawn k ~name:"p" (fun () ->
        runs := (De.now_ps k, (De.stats k).De.delta_cycles) :: !runs)
  in
  De.Event.sensitize p e1;
  De.Event.sensitize p e2;
  let trigger =
    De.spawn k ~name:"trigger" (fun () ->
        De.Event.notify_delta e2;
        De.Event.notify_delta e1)
  in
  let t = De.Event.create k "t" in
  De.Event.sensitize trigger t;
  De.Event.notify_delayed e1 ~delay_ps:20;
  De.Event.notify_delayed e2 ~delay_ps:20;
  De.Event.notify_delayed t ~delay_ps:40;
  De.run k;
  Alcotest.(check (list (pair int int))) "one run per delta"
    [ (20, 1); (40, 3) ]
    (List.rev !runs);
  Alcotest.(check (list int)) "stats" [ 3; 3; 3; 0 ] (stats_list k)

(* Thread processes (SC_THREAD style, via effects) *)

let test_thread_clock_generator () =
  (* A thread toggles a signal with timed waits; a method process
     counts rising edges. *)
  let k = De.create () in
  let clk = De.Signal.bool_signal k ~name:"clk" false in
  De.Thread.spawn k ~name:"clkgen" (fun () ->
      for _ = 1 to 10 do
        De.Thread.wait_ps k 50;
        De.Signal.write clk (not (De.Signal.read clk))
      done);
  let edges = ref 0 in
  let counter =
    De.spawn k ~name:"counter" (fun () -> if De.Signal.read clk then incr edges)
  in
  De.Event.sensitize counter (De.Signal.change_event clk);
  De.run k;
  Alcotest.(check int) "five rising edges" 5 !edges;
  Alcotest.(check int) "stopped after ten half-periods" 500 (De.now_ps k)

let test_thread_event_handshake () =
  (* Two threads ping-pong through events. *)
  let k = De.create () in
  let ping = De.Event.create k "ping" and pong = De.Event.create k "pong" in
  let log = ref [] in
  De.Thread.spawn k ~name:"a" (fun () ->
      for i = 1 to 3 do
        log := Printf.sprintf "a%d" i :: !log;
        De.Event.notify_delta ping;
        De.Thread.wait_event k pong
      done);
  De.Thread.spawn k ~name:"b" (fun () ->
      for i = 1 to 3 do
        De.Thread.wait_event k ping;
        log := Printf.sprintf "b%d" i :: !log;
        De.Event.notify_delta pong
      done);
  De.run k;
  Alcotest.(check (list string)) "alternation"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_thread_sequencing_with_time () =
  let k = De.create () in
  let samples = ref [] in
  De.Thread.spawn k ~name:"seq" (fun () ->
      De.Thread.wait_ps k 100;
      samples := De.now_ps k :: !samples;
      De.Thread.wait_ps k 250;
      samples := De.now_ps k :: !samples;
      De.Thread.wait_ps k 0;
      (* delta wait: same time *)
      samples := De.now_ps k :: !samples);
  De.run k;
  Alcotest.(check (list int)) "timeline" [ 100; 350; 350 ] (List.rev !samples)

let test_wait_outside_thread_rejected () =
  let k = De.create () in
  Alcotest.(check bool) "wait outside thread" true
    (try
       De.Thread.wait_ps k 10;
       false
     with Invalid_argument _ -> true)

let test_thread_repeated_event_waits_no_leak () =
  (* Waiting many times on the same event must keep exactly one live
     subscriber at a time (the one-shot resumes unsubscribe). *)
  let k = De.create () in
  let tick = De.Event.create k "tick" in
  let count = ref 0 in
  De.Thread.spawn k ~name:"w" (fun () ->
      for _ = 1 to 50 do
        De.Thread.wait_event k tick;
        incr count
      done);
  let driver =
    De.spawn k ~name:"driver" (fun () ->
        if De.now_ps k < 5000 then De.Event.notify_delayed tick ~delay_ps:100)
  in
  De.Event.sensitize driver tick;
  De.Event.notify_delayed tick ~delay_ps:100;
  De.run k;
  Alcotest.(check int) "all ticks seen" 50 !count

(* TDF *)

let test_tdf_schedule_order () =
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"c" ~timestep_ps:10 in
  let p1 = Tdf.port c "p1" ~rate:1 in
  let p2 = Tdf.port c "p2" ~rate:1 in
  let order = ref [] in
  (* Register consumer first: the schedule must still run producers
     first. *)
  let _sink =
    Tdf.add_module c ~name:"sink" ~reads:[ p2 ] ~writes:[] (fun () ->
        order := "sink" :: !order)
  in
  let _mid =
    Tdf.add_module c ~name:"mid" ~reads:[ p1 ] ~writes:[ p2 ] (fun () ->
        order := "mid" :: !order;
        Tdf.write p2 0 (Tdf.read p1 0 +. 1.0))
  in
  let _src =
    Tdf.add_module c ~name:"src" ~reads:[] ~writes:[ p1 ] (fun () ->
        order := "src" :: !order;
        Tdf.write p1 0 5.0)
  in
  Tdf.start c ~until_ps:10;
  De.run_until k ~ps:10;
  Alcotest.(check (list string)) "topological order" [ "src"; "mid"; "sink" ]
    (List.rev !order);
  Alcotest.(check (float 0.0)) "token flowed" 6.0 (Tdf.read p2 0)

let test_tdf_cycle_rejected () =
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"c" ~timestep_ps:10 in
  let a = Tdf.port c "a" ~rate:1 and b = Tdf.port c "b" ~rate:1 in
  let _m1 = Tdf.add_module c ~name:"m1" ~reads:[ a ] ~writes:[ b ] (fun () -> ()) in
  let _m2 = Tdf.add_module c ~name:"m2" ~reads:[ b ] ~writes:[ a ] (fun () -> ()) in
  Alcotest.(check bool) "combinational cycle rejected" true
    (try
       Tdf.start c ~until_ps:10;
       false
     with Invalid_argument _ -> true)

let test_tdf_double_producer_rejected () =
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"c" ~timestep_ps:10 in
  let a = Tdf.port c "a" ~rate:1 in
  let _m1 = Tdf.add_module c ~name:"m1" ~reads:[] ~writes:[ a ] (fun () -> ()) in
  Alcotest.(check bool) "double producer rejected" true
    (try
       ignore (Tdf.add_module c ~name:"m2" ~reads:[] ~writes:[ a ] (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_tdf_activation_count () =
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"c" ~timestep_ps:100 in
  let a = Tdf.port c "a" ~rate:1 in
  let _m = Tdf.add_module c ~name:"m" ~reads:[] ~writes:[ a ] (fun () -> ()) in
  Tdf.start c ~until_ps:1000;
  De.run_until k ~ps:1000;
  let st = Tdf.cluster_stats c in
  Alcotest.(check int) "ten activations" 10 st.Tdf.activations

let test_tdf_multirate_decimation () =
  (* Source fires twice per activation (rate-1 writes), a 2:1 decimator
     averages each pair, the sink sees one token per activation. *)
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"deci" ~timestep_ps:100 in
  let hi = Tdf.port c "hi" ~rate:1 in
  let lo = Tdf.port c "lo" ~rate:1 in
  let counter = ref 0.0 in
  let _src =
    Tdf.add_module_rated c ~name:"src" ~reads:[] ~writes:[ (hi, 1) ]
      (fun _rep ->
        counter := !counter +. 1.0;
        Tdf.write hi 0 !counter)
  in
  let _decim =
    Tdf.add_module_rated c ~name:"decim" ~reads:[ (hi, 2) ]
      ~writes:[ (lo, 1) ] (fun _rep ->
        Tdf.write lo 0 ((Tdf.read hi 0 +. Tdf.read hi 1) /. 2.0))
  in
  let seen = ref [] in
  let _sink =
    Tdf.add_module_rated c ~name:"sink" ~reads:[ (lo, 1) ] ~writes:[]
      (fun _rep -> seen := Tdf.read lo 0 :: !seen)
  in
  Tdf.start c ~until_ps:300;
  De.run_until k ~ps:300;
  (* Activations at 100/200/300: pairs (1,2) (3,4) (5,6). *)
  Alcotest.(check (list (float 1e-12))) "decimated averages"
    [ 1.5; 3.5; 5.5 ] (List.rev !seen);
  let st = Tdf.cluster_stats c in
  Alcotest.(check int) "firings per activation: 2+1+1" 4 st.Tdf.schedule_length

let test_tdf_multirate_interpolation () =
  (* 1:3 expander: one input token, three output tokens. *)
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"interp" ~timestep_ps:100 in
  let a = Tdf.port c "a" ~rate:1 in
  let b = Tdf.port c "b" ~rate:1 in
  let _src =
    Tdf.add_module_rated c ~name:"src" ~reads:[] ~writes:[ (a, 1) ]
      (fun _ -> Tdf.write a 0 10.0)
  in
  let _expand =
    Tdf.add_module_rated c ~name:"expand" ~reads:[ (a, 1) ] ~writes:[ (b, 3) ]
      (fun _ ->
        let v = Tdf.read a 0 in
        Tdf.write b 0 v;
        Tdf.write b 1 (v +. 1.0);
        Tdf.write b 2 (v +. 2.0))
  in
  let seen = ref [] in
  let _sink =
    Tdf.add_module_rated c ~name:"sink" ~reads:[ (b, 1) ] ~writes:[]
      (fun _ -> seen := Tdf.read b 0 :: !seen)
  in
  Tdf.start c ~until_ps:100;
  De.run_until k ~ps:100;
  Alcotest.(check (list (float 1e-12))) "expanded stream" [ 10.0; 11.0; 12.0 ]
    (List.rev !seen)

let test_tdf_inconsistent_rates () =
  (* A rate loop that cannot be balanced must be rejected. *)
  let k = De.create () in
  let c = Tdf.create_cluster k ~name:"bad" ~timestep_ps:100 in
  let a = Tdf.port c "a" ~rate:1 in
  let b = Tdf.port c "b" ~rate:1 in
  (* m1 -> a -> m2 -> b -> m3, and m1 -> b' ... build inconsistency with
     two paths of different rate products between the same modules. *)
  let cport = Tdf.port c "c" ~rate:1 in
  let _m1 =
    Tdf.add_module_rated c ~name:"m1" ~reads:[] ~writes:[ (a, 1); (b, 2) ]
      (fun _ -> ())
  in
  let _m2 =
    Tdf.add_module_rated c ~name:"m2" ~reads:[ (a, 1) ] ~writes:[ (cport, 1) ]
      (fun _ -> ())
  in
  let _m3 =
    Tdf.add_module_rated c ~name:"m3" ~reads:[ (b, 1); (cport, 1) ] ~writes:[]
      (fun _ -> ())
  in
  Alcotest.(check bool) "inconsistent rates rejected" true
    (try
       Tdf.start c ~until_ps:100;
       false
     with Invalid_argument _ -> true)

(* Tracing *)

let test_tracing_vcd () =
  let k = De.create () in
  let s = De.Signal.float_signal k ~name:"s" 0.0 in
  let rec_ = De.Tracing.create k in
  De.Tracing.watch rec_ ~name:"sig_s" s;
  let e = De.Event.create k "e" in
  let p =
    De.spawn k ~name:"driver" (fun () ->
        De.Signal.write s (De.now k *. 1e12);
        if De.now_ps k < 3000 then De.Event.notify_delayed e ~delay_ps:1000)
  in
  De.Event.sensitize p e;
  De.Event.notify_delayed e ~delay_ps:1000;
  De.run k;
  let traces = De.Tracing.traces rec_ in
  Alcotest.(check int) "one signal" 1 (List.length traces);
  let _, tr = List.hd traces in
  (* initial sample + three changes *)
  Alcotest.(check int) "samples" 4 (Amsvp_util.Trace.length tr);
  let doc = De.Tracing.to_vcd rec_ in
  Alcotest.(check bool) "vcd var" true
    (let rec contains i =
       i + 5 <= String.length doc
       && (String.sub doc i 5 = "sig_s" || contains (i + 1))
     in
     contains 0)

(* Wrappers: the same abstracted model must produce identical traces
   under every MoC (only the machinery differs). *)

let test_wrappers_agree () =
  let dt = 1e-6 in
  let tc = Circuits.rc_ladder 1 in
  let rep = Flow.abstract_testcase tc ~dt in
  let p = rep.Flow.program in
  let t_stop = 1e-3 in
  let cpp = Wrap.run_cpp p ~stimuli:tc.Circuits.stimuli ~t_stop in
  let de = Wrap.run_de p ~stimuli:tc.Circuits.stimuli ~t_stop in
  let tdf = Wrap.run_tdf p ~stimuli:tc.Circuits.stimuli ~t_stop in
  let check_equal name a b =
    Alcotest.(check int) (name ^ " length") (Trace.length a) (Trace.length b);
    for i = 0 to Trace.length a - 1 do
      if abs_float (Trace.value a i -. Trace.value b i) > 1e-12 then
        Alcotest.failf "%s differs at sample %d" name i
    done
  in
  check_equal "de vs cpp" cpp.Wrap.trace de.Wrap.trace;
  check_equal "tdf vs cpp" cpp.Wrap.trace tdf.Wrap.trace

let test_eln_wrapper_matches_engine () =
  let dt = 1e-6 and t_stop = 1e-3 in
  let tc = Circuits.rc_ladder 2 in
  let wrapped =
    Wrap.run_eln tc.Circuits.circuit ~inputs:tc.Circuits.stimuli
      ~output:tc.Circuits.output ~dt ~t_stop
  in
  let direct = Engine.run_testcase_eln tc ~dt ~t_stop in
  let err =
    Metrics.nrmse_traces ~reference:direct.Engine.trace wrapped.Wrap.trace
      ~t0:0.0 ~dt:(2.0 *. dt) ~n:499
  in
  Alcotest.(check bool) "identical dynamics" true (err < 1e-12)

(* Bit-identity pin of the testbench bindings: RC20, 2IN and RECT for
   0.05 ms at dt = 50 ns under the DE, TDF and (linear cases only) ELN
   wrappers, each with the test case's own stimuli. The digest covers
   every trace sample bit for bit ([%h]); the kernel counts are
   (activations, delta cycles, timed notifications, signal updates). *)
let trace_digest tr =
  let b = Buffer.create 4096 in
  for i = 0 to Trace.length tr - 1 do
    Printf.bprintf b "%h %h\n" (Trace.time tr i) (Trace.value tr i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_wrappers_pinned () =
  let dt = 50e-9 and t_stop = 0.05e-3 in
  let stats (r : Wrap.result) =
    Option.map
      (fun (s : De.stats) ->
        ((s.activations, s.delta_cycles), (s.timed_notifications, s.signal_updates)))
      r.Wrap.de_stats
  in
  let check label digest counts (r : Wrap.result) =
    Alcotest.(check string) (label ^ " trace digest") digest
      (trace_digest r.Wrap.trace);
    Alcotest.(check (option (pair (pair int int) (pair int int))))
      (label ^ " DE stats") (Some counts) (stats r)
  in
  List.iter
    (fun (tc, de, tdf, eln, counts) ->
      let p = (Flow.abstract_testcase tc ~dt).Flow.program in
      let stimuli = tc.Circuits.stimuli in
      let label = tc.Circuits.label in
      check (label ^ " run_de") de counts (Wrap.run_de p ~stimuli ~t_stop);
      check (label ^ " run_tdf") tdf counts (Wrap.run_tdf p ~stimuli ~t_stop);
      Option.iter
        (fun digest ->
          check (label ^ " run_eln") digest counts
            (Wrap.run_eln tc.Circuits.circuit ~inputs:stimuli
               ~output:tc.Circuits.output ~dt ~t_stop))
        eln)
    [
      ( Circuits.rc_ladder 20,
        "ad872a9e53307f85838f3bec4229263d",
        "b272a65a0a9268b72906463e510f1128",
        Some "30e0148cfec42e0791941da8751c078b",
        ((1000, 2000), (1000, 1000)) );
      ( Circuits.two_input (),
        "1cb089c718f9f7797db61e32d71f301f",
        "5852de7737e49c33cad77aa3ce2d99f3",
        Some "1d3ca2d6ee2cee2fae3eecf04b25ea1f",
        ((1000, 1001), (1000, 1000)) );
      ( Circuits.rectifier (),
        "41371be931b166a99b00caf5d25e14e6",
        "2927902f2f59c26c527769ec531af9de",
        None,
        ((1000, 2000), (1000, 1000)) );
    ]

(* Seeded random kernel scenarios. Each model mixes timed and delta
   notifications with same-instant ties, signal writes (some of them
   no-ops), dynamic sensitivity and thread waits on time and on events,
   and logs every activation as (time, delta cycle, process). The
   digests pin the kernel's scheduling order across rewrites of its
   data structures. Regenerate after an intentional semantic change:

     AMSVP_GOLDEN_REGEN=1 dune exec test/test_sysc.exe -- test scenarios
     cp _build/default/test/fixtures/de_scenarios.golden test/fixtures/
*)
let scenario_seeds = List.init 40 (fun i -> i + 1)

let scenario_log seed =
  let module Rng = Amsvp_util.Rng in
  let rng = Rng.create seed in
  let pick n = Rng.int rng ~bound:n in
  let k = De.create () in
  let log = Buffer.create 8192 in
  let mark name =
    Printf.bprintf log "%d %d %s\n" (De.now_ps k) (De.stats k).De.delta_cycles
      name
  in
  let n_ev = 2 + pick 4 in
  let n_sig = 1 + pick 3 in
  let name prefix i = Printf.sprintf "%s%d" prefix i in
  let events = Array.init n_ev (fun i -> De.Event.create k (name "e" i)) in
  let sigs =
    Array.init n_sig (fun i -> De.Signal.int_signal k ~name:(name "s" i) 0)
  in
  (* An explicit event or a signal's change event. *)
  let any_event () =
    let i = pick (n_ev + n_sig) in
    if i < n_ev then events.(i) else De.Signal.change_event sigs.(i - n_ev)
  in
  (* Small delays, so that notifications tie at the same instant. *)
  let delay () = [| 0; 0; 1; 1; 2; 5; 10 |].(pick 7) in
  let procs = ref [||] in
  let budget = ref 400 in
  let act () =
    if !budget > 0 then begin
      decr budget;
      (* Each draw is bound before use, so the order in which the
         generator is consumed does not depend on argument evaluation
         order. *)
      match pick 7 with
      | 0 ->
          let e = events.(pick n_ev) in
          De.Event.notify_delayed e ~delay_ps:(delay ())
      | 1 -> De.Event.notify_delta events.(pick n_ev)
      | 2 | 3 ->
          let s = sigs.(pick n_sig) in
          De.Signal.write s (pick 3)
      | 4 ->
          let d = delay () in
          let e1 = events.(pick n_ev) in
          let e2 = events.(pick n_ev) in
          De.Event.notify_delayed e1 ~delay_ps:d;
          De.Event.notify_delayed e2 ~delay_ps:d
      | 5 ->
          let p = !procs.(pick (Array.length !procs)) in
          De.Event.sensitize p (any_event ())
      | _ -> ()
    end
  in
  procs :=
    Array.init (2 + pick 5) (fun i ->
        let name = Printf.sprintf "p%d" i in
        De.spawn k ~name (fun () ->
            mark name;
            for _ = 0 to pick 2 do
              act ()
            done));
  Array.iter
    (fun p ->
      for _ = 0 to pick 2 do
        De.Event.sensitize p (any_event ())
      done)
    !procs;
  for i = 0 to 1 + pick 2 do
    let name = Printf.sprintf "t%d" i in
    De.Thread.spawn k ~name (fun () ->
        mark name;
        for _ = 0 to 8 + pick 16 do
          if pick 2 = 0 then De.Thread.wait_ps k (delay ())
          else De.Thread.wait_event k (any_event ());
          mark name;
          act ()
        done)
  done;
  De.Event.notify_delta events.(0);
  let e = events.(pick n_ev) in
  De.Event.notify_delayed e ~delay_ps:(delay ());
  De.run_until k ~ps:60;
  mark "pause";
  De.run_until k ~ps:400;
  let s = De.stats k in
  Printf.bprintf log "stats %d %d %d %d\n" s.De.activations s.De.delta_cycles
    s.De.timed_notifications s.De.signal_updates;
  Buffer.contents log

let test_scenario_golden () =
  let regen = Sys.getenv_opt "AMSVP_GOLDEN_REGEN" = Some "1" in
  let fixture =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
      "de_scenarios.golden"
  in
  let text =
    String.concat ""
      (List.map
         (fun seed ->
           let log = scenario_log seed in
           Printf.sprintf "%d %d %s\n" seed
             (List.length (String.split_on_char '\n' log) - 1)
             (Digest.to_hex (Digest.string log)))
         scenario_seeds)
  in
  if regen then begin
    (try Sys.remove fixture with Sys_error _ -> ());
    let oc = open_out_bin fixture in
    output_string oc text;
    close_out oc
  end
  else
    let ic = open_in_bin fixture in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check (list string)) "scenario digests"
      (String.split_on_char '\n' expected)
      (String.split_on_char '\n' text)

let () =
  Alcotest.run "sysc"
    [
      ( "kernel",
        [
          Alcotest.test_case "timed ordering" `Quick test_timed_ordering;
          Alcotest.test_case "signal request/update" `Quick
            test_signal_update_semantics;
          Alcotest.test_case "no event on unchanged write" `Quick
            test_no_event_on_unchanged_write;
          Alcotest.test_case "notification collapse" `Quick test_notify_collapse;
          Alcotest.test_case "run_until boundary" `Quick test_run_until_boundary;
          Alcotest.test_case "stats" `Quick test_stats_counted;
          Alcotest.test_case "same-instant order" `Quick test_same_instant_order;
          Alcotest.test_case "update delta order" `Quick test_update_delta_order;
          Alcotest.test_case "two events one delta" `Quick
            test_two_events_one_delta;
        ] );
      ( "threads",
        [
          Alcotest.test_case "clock generator" `Quick test_thread_clock_generator;
          Alcotest.test_case "event handshake" `Quick test_thread_event_handshake;
          Alcotest.test_case "timed sequencing" `Quick
            test_thread_sequencing_with_time;
          Alcotest.test_case "wait outside thread" `Quick
            test_wait_outside_thread_rejected;
          Alcotest.test_case "no subscriber leak" `Quick
            test_thread_repeated_event_waits_no_leak;
        ] );
      ( "scenarios",
        [ Alcotest.test_case "scenario golden" `Quick test_scenario_golden ] );
      ( "tdf",
        [
          Alcotest.test_case "static schedule order" `Quick test_tdf_schedule_order;
          Alcotest.test_case "cycle rejected" `Quick test_tdf_cycle_rejected;
          Alcotest.test_case "double producer rejected" `Quick
            test_tdf_double_producer_rejected;
          Alcotest.test_case "activation count" `Quick test_tdf_activation_count;
          Alcotest.test_case "multirate decimation" `Quick
            test_tdf_multirate_decimation;
          Alcotest.test_case "multirate interpolation" `Quick
            test_tdf_multirate_interpolation;
          Alcotest.test_case "inconsistent rates" `Quick
            test_tdf_inconsistent_rates;
        ] );
      ("tracing", [ Alcotest.test_case "vcd export" `Quick test_tracing_vcd ]);
      ( "wrappers",
        [
          Alcotest.test_case "MoCs agree on the model" `Quick test_wrappers_agree;
          Alcotest.test_case "ELN wrapper vs engine" `Quick
            test_eln_wrapper_matches_engine;
          Alcotest.test_case "bindings pinned" `Quick test_wrappers_pinned;
        ] );
    ]
