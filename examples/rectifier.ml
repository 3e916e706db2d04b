(* Piecewise-linear extension (paper Section III-C): abstract a
   half-wave rectifier whose diode is a two-segment PWL conductance,
   compare the generated region-switching model with the Newton-based
   SPICE reference, and export the waveforms as a VCD file.

   Run with: dune exec examples/rectifier.exe *)

module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Engine = Amsvp_mna.Engine
module Flow = Amsvp_core.Flow
module Codegen = Amsvp_codegen.Codegen
module Sfprogram = Amsvp_sf.Sfprogram
module Stimulus = Amsvp_util.Stimulus
module Metrics = Amsvp_util.Metrics
module Vcd = Amsvp_util.Vcd

let () =
  (* A 1 kHz sine through a series resistor into a PWL diode clamp. *)
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd" (Component.Input "in");
  Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"a" 1.0e3;
  Circuit.add_pwl_conductance ckt ~name:"d1" ~pos:"a" ~neg:"gnd"
    ~g_on:(1.0 /. 100.0) ~g_off:1e-6 ~threshold:0.0;
  Format.printf "%a@.@." Circuit.pp ckt;

  let dt = 1e-7 and t_stop = 3e-3 in
  let out = Expr.potential "a" "gnd" in
  let rep = Flow.abstract_circuit ~name:"rectifier" ckt ~outputs:[ out ] ~dt in
  print_endline
    "Generated region-switching model (one solved linear system per PWL \
     region, selected on the previous step's values):";
  print_string (Codegen.emit Codegen.Cpp rep.program);
  print_newline ();

  let sine = Stimulus.sine ~freq:1e3 ~amplitude:1.0 in
  let runner = Sfprogram.Runner.create rep.program in
  let mine = Sfprogram.Runner.run runner ~stimuli:[| sine |] ~t_stop () in
  let reference =
    Engine.spice_like ~substeps:1 ~iterations:3 ckt ~inputs:[ ("in", sine) ]
      ~output:out ~dt ~t_stop
  in
  let err =
    Metrics.nrmse_traces ~reference:reference.Engine.trace mine ~t0:0.0
      ~dt:(t_stop /. 1000.0) ~n:999
  in
  Printf.printf "NRMSE vs Newton-based conservative reference: %.3g\n" err;

  let stim_trace =
    Amsvp_util.Trace.of_fun sine ~t0:0.0 ~dt:(t_stop /. 600.0) ~n:600
  in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "rectifier.vcd" in
  Vcd.write_file path
    [ ("vin", stim_trace); ("vout_abstracted", mine);
      ("vout_reference", reference.Engine.trace) ];
  Printf.printf "waveforms written to %s (open with any VCD viewer)\n" path;

  (* ASCII scope of the clamping behaviour. *)
  print_endline "\n  t (us)   vin      vout";
  for i = 0 to 30 do
    let t = float_of_int i *. 1e-4 /. 3.0 +. 2e-3 in
    let vi = sine t and vo = Amsvp_util.Trace.sample_at mine t in
    let col v = int_of_float ((v +. 1.1) *. 20.0) in
    let line = Bytes.make 46 ' ' in
    Bytes.set line (min 45 (max 0 (col vi))) '*';
    Bytes.set line (min 45 (max 0 (col vo))) 'o';
    Printf.printf "%8.1f %+.3f  %+.3f |%s|\n" (t *. 1e6) vi vo
      (Bytes.to_string line)
  done
