(* Filter-design exploration with the abstraction flow: sweep the order
   of the RC ladder, compare the abstracted models against the
   conservative reference for accuracy, cost and frequency response.

   Run with: dune exec examples/filter_design.exe *)

module Circuits = Amsvp_netlist.Circuits
module Engine = Amsvp_mna.Engine
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Stimulus = Amsvp_util.Stimulus
module Metrics = Amsvp_util.Metrics
module Trace = Amsvp_util.Trace

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* Steady-state amplitude of the filter response to a sinusoid, from
   the last few periods of a transient run. *)
let gain_at runner ~inputs_order ~freq ~dt =
  let stim = Stimulus.sine ~freq ~amplitude:1.0 in
  let stimuli = Array.map (fun _ -> stim) inputs_order in
  let periods = 12.0 in
  let t_stop = periods /. freq in
  let tr = Sfprogram.Runner.run runner ~stimuli ~t_stop () in
  (* Peak over the last third of the run. *)
  let n = Trace.length tr in
  let peak = ref 0.0 in
  for i = 2 * n / 3 to n - 1 do
    peak := max !peak (abs_float (Trace.value tr i))
  done;
  ignore dt;
  !peak

let () =
  print_endline "RC-ladder design sweep: abstraction cost and accuracy";
  print_endline "";
  Printf.printf "%5s %6s %6s | %10s | %12s | %12s\n" "order" "nodes" "defs"
    "abs.time" "NRMSE vs ref" "cutoff check";
  let dt = 1e-6 in
  List.iter
    (fun n ->
      let tc = Circuits.rc_ladder n in
      let rep, t_abs = time (fun () -> Flow.abstract_testcase tc ~dt) in
      (* Accuracy against the fine conservative reference. *)
      let runner = Sfprogram.Runner.create rep.Flow.program in
      let t_stop = 4e-3 in
      let mine =
        Sfprogram.Runner.run runner
          ~stimuli:[| Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0 |]
          ~t_stop ()
      in
      let reference = Engine.run_testcase_spice tc ~dt ~t_stop in
      let err =
        Metrics.nrmse_traces ~reference:reference.Engine.trace mine ~t0:0.0
          ~dt:(t_stop /. 1000.0) ~n:998
      in
      (* Single-pole sanity: at f = 1/(2 pi R C) a one-stage ladder
         attenuates to ~0.707. *)
      let fc = 1.0 /. (2.0 *. Float.pi *. 5e3 *. 25e-9) in
      let g =
        gain_at
          (Sfprogram.Runner.create rep.Flow.program)
          ~inputs_order:[| () |] ~freq:fc ~dt
      in
      Printf.printf "%5d %6d %6d | %8.2f ms | %12.2e | |H(fc)|=%.3f\n" n
        rep.Flow.nodes rep.Flow.definitions (t_abs *. 1e3) err g)
    [ 1; 2; 4; 8; 12; 16; 20; 24; 32 ];
  print_endline "";
  print_endline
    "frequency response of the abstracted RC4 (sine sweep, tight loop):";
  let rep = Flow.abstract_testcase (Circuits.rc_ladder 4) ~dt in
  List.iter
    (fun freq ->
      let g =
        gain_at
          (Sfprogram.Runner.create rep.Flow.program)
          ~inputs_order:[| () |] ~freq ~dt
      in
      let bars = int_of_float (g *. 50.0) in
      Printf.printf "  f=%8.0f Hz |H|=%6.3f %s\n" freq g (String.make (max bars 0) '#'))
    [ 50.; 100.; 200.; 400.; 800.; 1600.; 3200.; 6400.; 12800. ]
