(* Tests for the abstraction methodology: the equation multimap,
   enrichment, assembly, solving and the end-to-end flow. *)

module Circuits = Amsvp_netlist.Circuits
module Circuit = Amsvp_netlist.Circuit
module Engine = Amsvp_mna.Engine
module Eqmap = Amsvp_core.Eqmap
module Acquisition = Amsvp_core.Acquisition
module Enrich = Amsvp_core.Enrich
module Assemble = Amsvp_core.Assemble
module Solve = Amsvp_core.Solve
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Metrics = Amsvp_util.Metrics
module Stimulus = Amsvp_util.Stimulus
module Trace = Amsvp_util.Trace

let dt = 50e-9

let rc1_map () =
  let tc = Circuits.rc_ladder 1 in
  let acq = Acquisition.of_circuit tc.circuit in
  Enrich.enrich acq

(* Eqmap *)

let test_enrichment_counts () =
  let map, stats = rc1_map () in
  (* RC1: 3 dipole equations, 2 non-ground nodes, 1 fundamental loop. *)
  Alcotest.(check int) "dipole classes" 3 stats.Enrich.dipole_classes;
  Alcotest.(check int) "kcl classes" 2 stats.Enrich.kcl_classes;
  Alcotest.(check int) "kvl classes" 1 stats.Enrich.kvl_classes;
  Alcotest.(check int) "classes" 6 (Eqmap.class_count map);
  (* Every equation contributes one solved variant per unknown:
     2+2+2 (dipoles) + 2+2 (KCL) + 3 (KVL). *)
  Alcotest.(check int) "variants" 13 (Eqmap.variant_count map)

let test_fetch_and_disable () =
  let map, _ = rc1_map () in
  let v_in = Eqn.Cur (Expr.potential "in" "gnd") in
  (match Eqmap.fetch map v_in with
  | None -> Alcotest.fail "V(in,gnd) should be definable"
  | Some variant ->
      Alcotest.(check bool) "class enabled" true
        (Eqmap.is_enabled map variant.Eqmap.class_id);
      Eqmap.disable_class map variant.Eqmap.class_id;
      Alcotest.(check bool) "fetch skips disabled class" true
        (match Eqmap.fetch map v_in with
        | None -> true
        | Some v2 -> v2.Eqmap.class_id <> variant.Eqmap.class_id));
  Eqmap.reset map;
  Alcotest.(check bool) "reset re-enables" true (Eqmap.fetch map v_in <> None)

let test_fetch_all_order () =
  let map, _ = rc1_map () in
  let i_r1 = Eqn.Cur (Expr.flow "r1" "") in
  let all = Eqmap.fetch_all map i_r1 in
  (* I(r1) is definable from its own dipole equation and from both
     Kirchhoff current equations. *)
  Alcotest.(check bool) "at least two variants" true (List.length all >= 2);
  let ids = List.map (fun v -> v.Eqmap.class_id) all in
  Alcotest.(check (list int)) "insertion order" (List.sort compare ids) ids

(* Assemble *)

let test_assemble_rc1 () =
  let map, _ = rc1_map () in
  let out = Expr.potential "out" "gnd" in
  let r = Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ out ] in
  Alcotest.(check int) "cone size" 5 (List.length r.Assemble.defs);
  Alcotest.(check bool) "output defined" true
    (List.exists (fun d -> Expr.equal_var d.Assemble.var out) r.Assemble.defs);
  (* The output is state-bearing: with integration preferred, its
     definition must be an integration. *)
  let out_def =
    List.find (fun d -> Expr.equal_var d.Assemble.var out) r.Assemble.defs
  in
  Alcotest.(check bool) "output integrates" true out_def.Assemble.integrates

let test_assemble_consumes_classes () =
  let map, _ = rc1_map () in
  let out = Expr.potential "out" "gnd" in
  let r = Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ out ] in
  let disabled =
    List.filter
      (fun d -> not (Eqmap.is_enabled map d.Assemble.via))
      r.Assemble.defs
  in
  Alcotest.(check int) "one class consumed per definition"
    (List.length r.Assemble.defs)
    (List.length disabled)

let test_assemble_missing_output () =
  let map, _ = rc1_map () in
  let ghost = Expr.potential "nowhere" "gnd" in
  Alcotest.check_raises "undefinable output" (Assemble.No_definition ghost)
    (fun () ->
      ignore (Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ ghost ]))

let test_inline_tree_self_reference () =
  (* Fig. 6: the inlined tree for V(out,gnd) mentions V(out,gnd) on its
     right-hand side (through the discretised derivative chain). *)
  let map, _ = rc1_map () in
  let out = Expr.potential "out" "gnd" in
  let r = Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ out ] in
  let tree = Assemble.inline_tree r out in
  Alcotest.(check bool) "self reference present" true
    (Expr.contains_var out tree
    || Expr.contains_var (Expr.delayed out 1) tree)

(* Solve *)

let test_solve_rc1_coefficients () =
  (* Backward Euler on the RC stage: V = (V@-1 + a*in) / (1+a),
     a = dt/(R C) = 4e-4. *)
  let tc = Circuits.rc_ladder 1 in
  let rep = Flow.abstract_testcase tc ~dt in
  let out = Expr.potential "out" "gnd" in
  let assignment =
    List.find
      (fun (a : Sfprogram.assignment) -> Expr.equal_var a.Sfprogram.target out)
      rep.Flow.program.Sfprogram.assignments
  in
  let env v =
    if Expr.equal_var v (Expr.delayed out 1) then 1.0
    else if Expr.equal_var v (Expr.signal "in") then 0.0
    else 0.0
  in
  let alpha = Expr.eval env assignment.Sfprogram.expr in
  let a = dt /. (5.0e3 *. 25.0e-9) in
  Alcotest.(check (float 1e-9)) "state coefficient" (1.0 /. (1.0 +. a)) alpha

let test_solve_modes_agree_when_fine () =
  (* Exact and relaxed modes agree within the truncation error of one
     step lag. *)
  let tc = Circuits.rc_ladder 3 in
  let acq = Acquisition.of_circuit tc.circuit in
  let map, _ = Enrich.enrich acq in
  let asm = Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ tc.output ] in
  let exact = Solve.solve ~mode:`Exact ~name:"x" ~dt asm in
  let relaxed = Solve.solve ~mode:`Relaxed ~name:"r" ~dt asm in
  let run p =
    let runner = Sfprogram.Runner.create p in
    Sfprogram.Runner.run runner
      ~stimuli:[| Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0 |]
      ~t_stop:1e-3 ()
  in
  let a = run exact and b = run relaxed in
  let err = Metrics.nrmse_traces ~reference:a b ~t0:0.0 ~dt:1e-6 ~n:999 in
  Alcotest.(check bool) (Printf.sprintf "NRMSE %g small" err) true (err < 1e-3)

let test_relaxed_stable_long_run () =
  let tc = Circuits.rc_ladder 8 in
  let acq = Acquisition.of_circuit tc.circuit in
  let map, _ = Enrich.enrich acq in
  let asm = Assemble.assemble map ~inputs:[ "in" ] ~outputs:[ tc.output ] in
  let p = Solve.solve ~mode:`Relaxed ~name:"r" ~dt asm in
  let runner = Sfprogram.Runner.create p in
  let tr =
    Sfprogram.Runner.run runner
      ~stimuli:[| Stimulus.constant 1.0 |]
      ~t_stop:20e-3 ()
  in
  let last = Trace.last_value tr in
  Alcotest.(check bool) "settles to DC level" true (abs_float (last -. 1.0) < 1e-2)

(* Flow *)

let test_flow_report_fields () =
  let tc = Circuits.rc_ladder 20 in
  let rep = Flow.abstract_testcase tc ~dt in
  Alcotest.(check int) "nodes (paper: 22)" 22 rep.Flow.nodes;
  Alcotest.(check int) "branches (paper: 41)" 41 rep.Flow.branches;
  Alcotest.(check bool) "timings recorded" true (Flow.total_seconds rep >= 0.0)

let test_flow_probe_insertion () =
  (* V(in,out) is not the branch potential of any RC2 device: the flow
     must observe it through an inserted probe. *)
  let tc = Circuits.rc_ladder 2 in
  let out = Expr.potential "in" "out" in
  let rep = Flow.abstract_circuit tc.circuit ~outputs:[ out ] ~dt in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let tr =
    Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant 1.0 |]
      ~t_stop:20e-3 ()
  in
  (* At DC both nodes sit at the source level: the difference is 0. *)
  Alcotest.(check (float 1e-3)) "difference settles to zero" 0.0
    (Trace.last_value tr)

let test_flow_rejects_unknown_nodes () =
  let tc = Circuits.rc_ladder 1 in
  Alcotest.(check bool) "unknown node rejected" true
    (try
       ignore
         (Flow.abstract_circuit tc.circuit
            ~outputs:[ Expr.potential "zig" "zag" ]
            ~dt);
       false
     with Invalid_argument _ -> true)

let test_convert_nonlinear_self_reference_rejected () =
  let out = Expr.potential "out" "gnd" in
  Alcotest.(check bool) "nonlinear self-reference rejected" true
    (try
       ignore
         (Flow.convert_signal_flow ~name:"bad" ~inputs:[ "in" ]
            ~outputs:[ out ]
            ~contributions:
              [ (out, Expr.(App (Sin, Expr.var out) + Expr.var (Expr.signal "in"))) ]
            ~dt);
       false
     with Solve.Nonlinear _ -> true)

let test_convert_idt () =
  (* V(out) <+ idt(V(in)) becomes an accumulator program. *)
  let out = Expr.potential "out" "gnd" in
  let p =
    Flow.convert_signal_flow ~name:"integ" ~inputs:[ "in" ] ~outputs:[ out ]
      ~contributions:[ (out, Expr.Idt (Expr.var (Expr.signal "in"))) ]
      ~dt:0.5
  in
  let runner = Sfprogram.Runner.create p in
  let tr =
    Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant 2.0 |] ~t_stop:2.0 ()
  in
  (* Rectangle rule: after 4 steps of 0.5 s at rate 2: integral = 4. *)
  Alcotest.(check (float 1e-9)) "integral" 4.0 (Trace.last_value tr)

let test_rlc_abstraction_exact () =
  (* The inductor forces the Der-fallback on a flow quantity: the
     abstracted RLC must still match the same-step network solution. *)
  let tc = Circuits.rlc_series () in
  let step = 1e-6 in
  let rep = Flow.abstract_testcase ~mode:`Exact tc ~dt:step in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let stims =
    Array.of_list
      (List.map
         (fun name -> List.assoc name tc.Circuits.stimuli)
         rep.Flow.program.Amsvp_sf.Sfprogram.inputs)
  in
  let t_stop = 5e-3 in
  let mine = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop () in
  let reference =
    Engine.run_testcase_spice ~substeps:1 ~iterations:1 tc ~dt:step ~t_stop
  in
  let err =
    Metrics.nrmse_traces ~reference:reference.Engine.trace mine ~t0:0.0
      ~dt:(step *. 5.0) ~n:999
  in
  Alcotest.(check bool) (Printf.sprintf "NRMSE=%g" err) true (err < 1e-9)

let test_multi_output_abstraction () =
  (* Several outputs of interest share one cone: both the capacitor
     voltage and the inductor current of the RLC. *)
  let tc = Circuits.rlc_series () in
  let i_l = Expr.flow "l1" "" in
  let rep =
    Flow.abstract_circuit ~mode:`Exact tc.Circuits.circuit
      ~outputs:[ tc.Circuits.output; i_l ]
      ~dt:1e-6
  in
  Alcotest.(check int) "two outputs" 2
    (List.length rep.Flow.program.Amsvp_sf.Sfprogram.outputs);
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let stims = [| Stimulus.constant 1.0 |] in
  let _ = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop:10e-3 () in
  (* At DC the capacitor blocks: inductor current -> 0, voltage -> 1. *)
  Alcotest.(check (float 1e-3)) "V(out) settles" 1.0
    (Sfprogram.Runner.read runner tc.Circuits.output);
  Alcotest.(check (float 1e-4)) "I(l1) settles" 0.0
    (Sfprogram.Runner.read runner i_l)

let test_trapezoidal_accuracy () =
  (* At a deliberately coarse step and a smooth stimulus, trapezoidal
     integration must beat backward Euler by an order of magnitude
     against a fine reference (second- vs first-order truncation
     error; the advantage degrades on discontinuous stimuli, where
     both methods are edge-limited). *)
  let tc = Circuits.rc_ladder 1 in
  let coarse = 5e-6 in
  let t_stop = 2e-3 in
  let sine = Stimulus.sine ~freq:1e3 ~amplitude:1.0 in
  let reference =
    Engine.spice_like ~substeps:64 ~iterations:1 tc.Circuits.circuit
      ~inputs:[ ("in", sine) ] ~output:tc.Circuits.output ~dt:coarse ~t_stop
  in
  let err integration =
    let rep = Flow.abstract_testcase ~mode:`Exact ~integration tc ~dt:coarse in
    let runner = Sfprogram.Runner.create rep.Flow.program in
    let tr = Sfprogram.Runner.run runner ~stimuli:[| sine |] ~t_stop () in
    Metrics.nrmse_traces ~reference:reference.Engine.trace tr ~t0:0.0
      ~dt:(t_stop /. 200.0) ~n:199
  in
  let be = err `Backward_euler and trap = err `Trapezoidal in
  Alcotest.(check bool)
    (Printf.sprintf "trap (%g) at least 5x better than BE (%g)" trap be)
    true
    (trap *. 5.0 < be)

let test_trapezoidal_rlc () =
  (* Second-order dynamics, smooth drive near the resonance. *)
  let tc = Circuits.rlc_series () in
  let step = 2e-6 in
  let t_stop = 5e-3 in
  let sine = Stimulus.sine ~freq:800.0 ~amplitude:1.0 in
  let rep =
    Flow.abstract_testcase ~mode:`Exact ~integration:`Trapezoidal tc ~dt:step
  in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let tr = Sfprogram.Runner.run runner ~stimuli:[| sine |] ~t_stop () in
  let reference =
    Engine.spice_like ~substeps:64 ~iterations:1 tc.Circuits.circuit
      ~inputs:[ ("in", sine) ] ~output:tc.Circuits.output ~dt:step ~t_stop
  in
  let err =
    Metrics.nrmse_traces ~reference:reference.Engine.trace tr ~t0:0.0
      ~dt:(t_stop /. 500.0) ~n:499
  in
  Alcotest.(check bool) (Printf.sprintf "NRMSE=%g" err) true (err < 2e-3)

let test_pwl_half_wave () =
  (* Half-wave rectifier: a piecewise-linear conductance loads a
     resistor divider (Section III-C extension). The abstracted model
     selects the solved region from the previous step's values and must
     track the Newton-based SPICE reference. *)
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Amsvp_netlist.Component.Input "in");
  Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"a" 1.0e3;
  Circuit.add_pwl_conductance ckt ~name:"d1" ~pos:"a" ~neg:"gnd"
    ~g_on:(1.0 /. 100.0) ~g_off:1e-6 ~threshold:0.0;
  let out = Expr.potential "a" "gnd" in
  let step = 1e-7 in
  let rep = Flow.abstract_circuit ~mode:`Exact ckt ~outputs:[ out ] ~dt:step in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let sine = Stimulus.sine ~freq:1e3 ~amplitude:1.0 in
  let t_stop = 2e-3 in
  let mine = Sfprogram.Runner.run runner ~stimuli:[| sine |] ~t_stop () in
  let reference =
    Engine.spice_like ~substeps:1 ~iterations:3 ckt
      ~inputs:[ ("in", sine) ] ~output:out ~dt:step ~t_stop
  in
  let err =
    Metrics.nrmse_traces ~reference:reference.Engine.trace mine ~t0:0.0
      ~dt:(t_stop /. 1000.0) ~n:999
  in
  Alcotest.(check bool) (Printf.sprintf "NRMSE=%g" err) true (err < 1e-3);
  (* Rectification: positive peaks squashed to the divider level,
     negative peaks pass through. *)
  let vmax = ref (-10.0) and vmin = ref 10.0 in
  for i = 0 to Amsvp_util.Trace.length mine - 1 do
    let v = Amsvp_util.Trace.value mine i in
    if v > !vmax then vmax := v;
    if v < !vmin then vmin := v
  done;
  Alcotest.(check (float 2e-2)) "positive clamp" (100.0 /. 1100.0) !vmax;
  Alcotest.(check (float 2e-2)) "negative passthrough" (-1.0) !vmin

let test_pwl_rejected_by_eln () =
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Amsvp_netlist.Component.Dc 1.0);
  Circuit.add_pwl_conductance ckt ~name:"d1" ~pos:"in" ~neg:"gnd" ~g_on:1.0
    ~g_off:1e-6 ~threshold:0.0;
  Alcotest.(check bool) "linear-only engine refuses PWL" true
    (try
       ignore
         (Engine.eln_like ckt ~inputs:[] ~output:(Expr.potential "in" "gnd")
            ~dt:1e-6 ~t_stop:1e-5);
       false
     with Invalid_argument _ -> true)

(* End-to-end accuracy properties *)

let prop_random_ladder_matches_reference =
  QCheck.Test.make ~name:"abstracted random RC ladder matches same-step MNA"
    ~count:15
    QCheck.(triple (int_range 1 8) (float_range 1e3 20e3) (float_range 5e-9 100e-9))
    (fun (n, r, c) ->
      let tc = Circuits.rc_ladder ~r ~c n in
      let step = 1e-6 in
      let rep = Flow.abstract_testcase ~mode:`Exact tc ~dt:step in
      let runner = Sfprogram.Runner.create rep.Flow.program in
      let stims =
        Array.of_list
          (List.map
             (fun name -> List.assoc name tc.Circuits.stimuli)
             rep.Flow.program.Sfprogram.inputs)
      in
      let t_stop = 2e-3 in
      let mine = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop () in
      let reference =
        Engine.run_testcase_spice ~substeps:1 ~iterations:1 tc ~dt:step ~t_stop
      in
      let err =
        Metrics.nrmse_traces ~reference:reference.Engine.trace mine ~t0:0.0
          ~dt:(step *. 2.

) ~n:999
      in
      err < 1e-6)

let prop_relaxed_ladder_close_to_reference =
  (* Relaxed mode trades one step of lag for locality: the error is
     O(dt/tau) but the result stays close to the exact discretisation
     when dt is much smaller than the time constant. *)
  QCheck.Test.make ~name:"relaxed mode stays within O(dt/tau) of exact"
    ~count:10
    QCheck.(int_range 2 10)
    (fun n ->
      let tc = Circuits.rc_ladder n in
      let step = 50e-9 in
      (* tau = 125 us per stage; dt/tau = 4e-4 *)
      let run mode =
        let rep = Flow.abstract_testcase ~mode tc ~dt:step in
        let runner = Sfprogram.Runner.create rep.Flow.program in
        Sfprogram.Runner.run runner
          ~stimuli:[| Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0 |]
          ~t_stop:1e-3 ()
      in
      let exact = run `Exact and relaxed = run `Relaxed in
      let err =
        Metrics.nrmse_traces ~reference:exact relaxed ~t0:0.0 ~dt:1e-6 ~n:999
      in
      err < 5e-3)

let prop_paper_circuits_roundtrip =
  QCheck.Test.make ~name:"every paper circuit abstracts and runs" ~count:4
    (QCheck.make (QCheck.Gen.oneofl [ "2IN"; "RC1"; "RC20"; "OA" ]))
    (fun label ->
      let tc = Option.get (Circuits.by_name label) in
      let rep = Flow.abstract_testcase tc ~dt in
      let runner = Sfprogram.Runner.create rep.Flow.program in
      let stims =
        Array.of_list
          (List.map
             (fun name -> List.assoc name tc.Circuits.stimuli)
             rep.Flow.program.Sfprogram.inputs)
      in
      let tr = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop:1e-4 () in
      Trace.length tr = 2001
      && Float.is_finite (Trace.last_value tr))

(* A definition that still holds an [idt] node — the assembler never
   produces one — is refused with the typed error by both integration
   rules: backward Euler in [Expr.discretize], trapezoidal in the
   differentiator rewrite. *)
let test_solve_idt_rejected () =
  let x = Expr.signal "x" and y = Expr.signal "y" in
  let asm =
    {
      Assemble.defs =
        [
          {
            Assemble.var = y;
            raw = Expr.Idt (Expr.var x);
            via = 0;
            integrates = false;
            deriv = None;
          };
        ];
      outputs = [ y ];
      inputs = [ "x" ];
    }
  in
  Alcotest.check_raises "backward Euler"
    (Expr.Continuous_time
       "Expr.discretize: idt must be removed with extract_idt")
    (fun () -> ignore (Solve.solved_assignments ~dt:1e-6 asm));
  Alcotest.check_raises "trapezoidal"
    (Expr.Continuous_time "Solve: idt must be removed with extract_idt")
    (fun () ->
      ignore
        (Solve.solved_assignments ~integration:`Trapezoidal ~dt:1e-6 asm))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "eqmap",
        [
          Alcotest.test_case "enrichment counts" `Quick test_enrichment_counts;
          Alcotest.test_case "fetch and disable" `Quick test_fetch_and_disable;
          Alcotest.test_case "fetch_all order" `Quick test_fetch_all_order;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "RC1 cone" `Quick test_assemble_rc1;
          Alcotest.test_case "classes consumed" `Quick
            test_assemble_consumes_classes;
          Alcotest.test_case "missing output" `Quick test_assemble_missing_output;
          Alcotest.test_case "inline tree self-reference" `Quick
            test_inline_tree_self_reference;
        ] );
      ( "solve",
        [
          Alcotest.test_case "RC1 coefficients" `Quick test_solve_rc1_coefficients;
          Alcotest.test_case "modes agree" `Quick test_solve_modes_agree_when_fine;
          Alcotest.test_case "relaxed stability" `Quick test_relaxed_stable_long_run;
          Alcotest.test_case "idt rejected" `Quick test_solve_idt_rejected;
        ] );
      ( "flow",
        [
          Alcotest.test_case "report fields" `Quick test_flow_report_fields;
          Alcotest.test_case "probe insertion" `Quick test_flow_probe_insertion;
          Alcotest.test_case "unknown nodes rejected" `Quick
            test_flow_rejects_unknown_nodes;
          Alcotest.test_case "nonlinear self-ref rejected" `Quick
            test_convert_nonlinear_self_reference_rejected;
          Alcotest.test_case "idt conversion" `Quick test_convert_idt;
          Alcotest.test_case "RLC abstraction exact" `Quick
            test_rlc_abstraction_exact;
          Alcotest.test_case "multi-output abstraction" `Quick
            test_multi_output_abstraction;
          Alcotest.test_case "trapezoidal accuracy" `Quick
            test_trapezoidal_accuracy;
          Alcotest.test_case "trapezoidal RLC" `Quick test_trapezoidal_rlc;
          Alcotest.test_case "PWL half-wave rectifier" `Quick test_pwl_half_wave;
          Alcotest.test_case "PWL rejected by ELN" `Quick
            test_pwl_rejected_by_eln;
        ] );
      ( "properties",
        qt
          [
            prop_random_ladder_matches_reference;
            prop_relaxed_ladder_close_to_reference;
            prop_paper_circuits_roundtrip;
          ]
      );
    ]
