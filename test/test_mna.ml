(* Tests for the linear algebra and the conservative transient engines. *)

module Matrix = Amsvp_mna.Matrix
module System = Amsvp_mna.System
module Engine = Amsvp_mna.Engine
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Circuits = Amsvp_netlist.Circuits
module Graph = Amsvp_netlist.Graph
module Trace = Amsvp_util.Trace
module Stimulus = Amsvp_util.Stimulus

let checkf tol = Alcotest.(check (float tol))

(* Linear algebra *)

let test_lu_solve_known_system () =
  let m = Matrix.create 3 in
  let rows = [| [| 2.0; 1.0; -1.0 |]; [| -3.0; -1.0; 2.0 |]; [| -2.0; 1.0; 2.0 |] |] in
  Array.iteri (fun i r -> Array.iteri (fun j v -> Matrix.set m i j v) r) rows;
  let x = Matrix.solve m [| 8.0; -11.0; -3.0 |] in
  checkf 1e-9 "x0" 2.0 x.(0);
  checkf 1e-9 "x1" 3.0 x.(1);
  checkf 1e-9 "x2" (-1.0) x.(2)

let test_lu_pivoting () =
  (* Zero on the diagonal forces a row swap. *)
  let m = Matrix.create 2 in
  Matrix.set m 0 0 0.0;
  Matrix.set m 0 1 1.0;
  Matrix.set m 1 0 1.0;
  Matrix.set m 1 1 0.0;
  let x = Matrix.solve m [| 3.0; 4.0 |] in
  checkf 1e-12 "x0" 4.0 x.(0);
  checkf 1e-12 "x1" 3.0 x.(1)

let test_singular_detected () =
  let m = Matrix.create 2 in
  Matrix.set m 0 0 1.0;
  Matrix.set m 0 1 2.0;
  Matrix.set m 1 0 2.0;
  Matrix.set m 1 1 4.0;
  Alcotest.check_raises "singular" (Matrix.Singular 1) (fun () ->
      ignore (Matrix.lu_factor m))

let prop_lu_roundtrip =
  (* Solve then multiply back: A x = b. *)
  QCheck.Test.make ~name:"LU solve satisfies A x = b" ~count:100
    QCheck.(list_of_size (Gen.return 9) (float_range (-10.0) 10.0))
    (fun entries ->
      let m = Matrix.create 3 in
      List.iteri (fun k v -> Matrix.set m (k / 3) (k mod 3) v) entries;
      (* Diagonal dominance keeps the system comfortably regular. *)
      for i = 0 to 2 do
        Matrix.add_to m i i 50.0
      done;
      let b = [| 1.0; -2.0; 3.0 |] in
      let x = Matrix.solve m b in
      let back = Matrix.mat_vec m x in
      Array.for_all2 (fun u w -> abs_float (u -. w) < 1e-8) back b)

(* DC behaviour *)

let dc_testcase label circuit output =
  { Circuits.label; circuit; output; stimuli = [] }

let test_voltage_divider () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"vs" ~pos:"a" ~neg:"gnd" (Component.Dc 10.0);
  Circuit.add_resistor c ~name:"r1" ~pos:"a" ~neg:"mid" 1.0e3;
  Circuit.add_resistor c ~name:"r2" ~pos:"mid" ~neg:"gnd" 3.0e3;
  let tc = dc_testcase "divider" c (Expr.potential "mid" "gnd") in
  let r = Engine.run_testcase_eln tc ~dt:1e-6 ~t_stop:1e-5 in
  checkf 1e-9 "3/4 of 10V" 7.5 (Trace.last_value r.trace)

(* A probe is checked against the network before a run: potentials
   between its nodes (ground included) and the currents [locate]
   supports are known; a node or device the circuit lacks is not,
   although [locate] reads a missing node as ground. *)
let test_probe_refusal () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"vs" ~pos:"a" ~neg:"gnd" (Component.Dc 10.0);
  Circuit.add_resistor c ~name:"r1" ~pos:"a" ~neg:"mid" 1.0e3;
  Circuit.add_capacitor c ~name:"c1" ~pos:"mid" ~neg:"gnd" 1.0e-9;
  let sys = System.build c in
  let unknown v = Some ("probe " ^ v ^ " names no quantity of the circuit rc") in
  List.iter
    (fun (label, v, expected) ->
      Alcotest.(check (option string)) label expected
        (System.probe_refusal sys ~circuit:"rc" v))
    [
      ("node to ground", Expr.potential "mid" "gnd", None);
      ("between nodes", Expr.potential "a" "mid", None);
      ("source current", Expr.flow "vs" "", None);
      ("resistor current", Expr.flow "r1" "", None);
      ("unknown node", Expr.potential "zz" "gnd", unknown "V(zz,gnd)");
      ("unknown reference node", Expr.potential "a" "zz", unknown "V(a,zz)");
      ("unknown device", Expr.flow "zz" "", unknown "I(zz)");
      ( "capacitor current (no unknown)",
        Expr.flow "c1" "",
        Some
          "probe I(c1) names the capacitor c1 of the circuit rc, for which \
           the solver keeps no current" );
      ( "delayed",
        Expr.delayed (Expr.potential "mid" "gnd") 1,
        unknown "V(mid,gnd)@-1" );
      ("signal", Expr.signal "a", unknown "a");
    ];
  (* what [probe_refusal] refuses as a missing node, [locate] reads as
     ground *)
  Alcotest.(check bool) "locate reads a missing node as ground" true
    (System.locate sys (Expr.potential "zz" "gnd") = System.Potential (-1, -1))

let test_vsource_loop_singular () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"v1" ~pos:"a" ~neg:"gnd" (Component.Dc 1.0);
  Circuit.add_vsource c ~name:"v2" ~pos:"a" ~neg:"gnd" (Component.Dc 2.0);
  let tc = dc_testcase "conflict" c (Expr.potential "a" "gnd") in
  Alcotest.(check bool) "rejected as singular" true
    (try
       ignore (Engine.run_testcase_eln tc ~dt:1e-6 ~t_stop:1e-5);
       false
     with
    | Matrix.Singular _ -> true
    (* topology validation now rejects the voltage-source loop before
       the matrix is ever assembled *)
    | Invalid_argument msg ->
        let sub = "voltage-defined" in
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0)

let run_dc (tc : Circuits.testcase) ~dc_inputs ~t_stop =
  let stimuli = List.map (fun (n, v) -> (n, Stimulus.constant v)) dc_inputs in
  Engine.eln_like tc.circuit ~inputs:stimuli ~output:tc.output ~dt:(t_stop /. 2000.0)
    ~t_stop

let test_two_input_dc_gain () =
  let tc = Circuits.two_input () in
  let r = run_dc tc ~dc_inputs:[ ("in1", 1.0); ("in2", 1.0) ] ~t_stop:1e-3 in
  (* Ideal summing amplifier: -(R3/R1 + R3/R2) = -(10/3 + 10/14). *)
  let expected = -.((10.0 /. 3.0) +. (10.0 /. 14.0)) in
  checkf 1e-2 "summing gain" expected (Trace.last_value r.trace)

let test_opamp_dc_gain () =
  let tc = Circuits.opamp () in
  let r = run_dc tc ~dc_inputs:[ ("in", 1.0) ] ~t_stop:2e-3 in
  (* Inverting stage: -R2/R1 = -4, up to finite-gain/loading terms. *)
  checkf 2e-2 "inverting gain" (-4.0) (Trace.last_value r.trace)

let test_rc_charge_curve () =
  let tc = Circuits.rc_ladder 1 in
  let stimuli = [ ("in", Stimulus.constant 1.0) ] in
  let dt = 1e-6 in
  let r =
    Engine.eln_like tc.circuit ~inputs:stimuli ~output:tc.output ~dt
      ~t_stop:500e-6
  in
  let tau = 5.0e3 *. 25.0e-9 in
  List.iter
    (fun t ->
      let expected = 1.0 -. exp (-.t /. tau) in
      let got = Trace.sample_at r.trace t in
      checkf 3e-3 (Printf.sprintf "v(t=%g)" t) expected got)
    [ 50e-6; 125e-6; 250e-6; 450e-6 ]

let test_spice_matches_eln () =
  List.iter
    (fun (tc : Circuits.testcase) ->
      let dt = 1e-6 and t_stop = 2e-3 in
      let s = Engine.run_testcase_spice tc ~dt ~t_stop in
      let e = Engine.run_testcase_eln tc ~dt ~t_stop in
      let err =
        Amsvp_util.Metrics.nrmse_traces ~reference:s.trace e.trace ~t0:0.0
          ~dt:(2.0 *. dt) ~n:999
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s spice vs eln NRMSE=%g" tc.label err)
        true (err < 5e-3))
    [ Circuits.two_input (); Circuits.rc_ladder 1; Circuits.opamp () ]

let test_rlc_step_response () =
  (* Series RLC, zeta = 0.5: underdamped step response overshoots and
     settles to the drive level. *)
  let tc = Circuits.rlc_series () in
  let stimuli = [ ("in", Stimulus.constant 1.0) ] in
  let dt = 1e-6 in
  let r =
    Engine.eln_like tc.circuit ~inputs:stimuli ~output:tc.output ~dt
      ~t_stop:10e-3
  in
  (* Peak of the underdamped response: 1 + exp(-pi*zeta/sqrt(1-zeta^2))
     = 1.163 for zeta = 0.5. *)
  let peak = ref 0.0 in
  for i = 0 to Trace.length r.trace - 1 do
    peak := max !peak (Trace.value r.trace i)
  done;
  checkf 2e-2 "overshoot" 1.163 !peak;
  checkf 1e-3 "settles to drive" 1.0 (Trace.last_value r.trace)

let test_engine_stats () =
  let tc = Circuits.rc_ladder 1 in
  let r = Engine.run_testcase_spice ~substeps:4 ~iterations:2 tc ~dt:1e-5 ~t_stop:1e-3 in
  Alcotest.(check int) "steps" 100 r.stats.steps;
  Alcotest.(check int) "solves = steps*substeps*iters" 800 r.stats.solves;
  Alcotest.(check int) "factorizations track solves" 800 r.stats.factorizations;
  let e = Engine.run_testcase_eln tc ~dt:1e-5 ~t_stop:1e-3 in
  Alcotest.(check int) "eln factors once" 1 e.stats.factorizations;
  Alcotest.(check int) "eln one solve per step" 100 e.stats.solves

let test_bad_arguments () =
  let tc = Circuits.rc_ladder 1 in
  Alcotest.(check bool) "dt<=0 rejected" true
    (try
       ignore (Engine.run_testcase_eln tc ~dt:0.0 ~t_stop:1.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing stimulus rejected" true
    (try
       ignore
         (Engine.eln_like tc.circuit ~inputs:[] ~output:tc.output ~dt:1e-6
            ~t_stop:1e-5);
       false
     with Invalid_argument _ -> true)

let test_stepper_inputs () =
  (* Declared inputs map to the circuit's input slots at [create]: a
     missing one is rejected there, the declared order is free, and
     [step] checks the arity with the expected and actual counts. *)
  let tc = Circuits.two_input () in
  let raises_at_create f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "ELN: missing input rejected at create" true
    (raises_at_create (fun () ->
         Engine.Eln_stepper.create tc.circuit ~inputs:[ "in1" ]
           ~output:tc.output ~dt:1e-6));
  Alcotest.(check bool) "SPICE: missing input rejected at create" true
    (raises_at_create (fun () ->
         Engine.Spice_stepper.create tc.circuit ~inputs:[ "in2" ]
           ~output:tc.output ~dt:1e-6));
  let eln inputs values =
    let st =
      Engine.Eln_stepper.create tc.circuit ~inputs ~output:tc.output ~dt:1e-6
    in
    for _ = 1 to 9 do
      ignore (Engine.Eln_stepper.step st ~input_values:values)
    done;
    Engine.Eln_stepper.step st ~input_values:values
  in
  Alcotest.(check (float 0.0)) "declared order is free"
    (eln [ "in1"; "in2" ] [| 0.3; 0.7 |])
    (eln [ "in2"; "unused"; "in1" ] [| 0.7; 5.0; 0.3 |]);
  let st =
    Engine.Spice_stepper.create tc.circuit ~inputs:[ "in1"; "in2" ]
      ~output:tc.output ~dt:1e-6
  in
  Alcotest.check_raises "arity"
    (Invalid_argument "Spice_stepper.step: expected 2 input(s), got 1")
    (fun () -> ignore (Engine.Spice_stepper.step st ~input_values:[| 1.0 |]))

(* DC operating point *)

module Dc = Amsvp_mna.Dc

let test_dc_divider_and_currents () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"vs" ~pos:"a" ~neg:"gnd" (Component.Dc 9.0);
  Circuit.add_resistor c ~name:"r1" ~pos:"a" ~neg:"mid" 1.0e3;
  Circuit.add_resistor c ~name:"r2" ~pos:"mid" ~neg:"gnd" 2.0e3;
  let op = Dc.operating_point c in
  checkf 1e-9 "divider" 6.0 (Dc.voltage op "mid");
  checkf 1e-12 "source current" (-3.0e-3) (Dc.current op "vs");
  checkf 1e-12 "resistor current" 3.0e-3 (Dc.current op "r1")

let test_dc_capacitor_open_inductor_short () =
  let tc = Circuits.rlc_series () in
  let op = Dc.operating_point ~inputs:[ ("in", 2.0) ] tc.circuit in
  (* Inductor is a short, capacitor an open: the full drive appears on
     the output node and no current flows. *)
  checkf 1e-6 "output follows the drive" 2.0 (Dc.voltage op "out");
  checkf 1e-9 "no inductor current" 0.0 (Dc.current op "l1")

let test_dc_pwl_region_iteration () =
  (* The PWL clamp: the DC solution must land in the conducting region
     when the divider pushes the node above the threshold. *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"vs" ~pos:"in" ~neg:"gnd" (Component.Dc 5.0);
  Circuit.add_resistor c ~name:"r1" ~pos:"in" ~neg:"a" 1.0e3;
  Circuit.add_pwl_conductance c ~name:"d1" ~pos:"a" ~neg:"gnd"
    ~g_on:(1.0 /. 100.0) ~g_off:1e-9 ~threshold:0.0;
  let op = Dc.operating_point c in
  (* divider 100/(1000+100) * 5 *)
  checkf 1e-6 "clamped node" (5.0 *. 100.0 /. 1100.0) (Dc.voltage op "a")

let test_dc_pwl_no_fixed_point () =
  (* A PWL divider with no consistent region: conducting, it pulls the
     node below its threshold (5 V * 1/1001); blocking, the node rises
     back above it (5 V * 1e6/(1e6+1e3)). The region search flips
     forever and must end in the typed exception. *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"vs" ~pos:"in" ~neg:"gnd" (Component.Dc 5.0);
  Circuit.add_resistor c ~name:"r1" ~pos:"in" ~neg:"a" 1.0e3;
  Circuit.add_pwl_conductance c ~name:"d1" ~pos:"a" ~neg:"gnd" ~g_on:1.0
    ~g_off:1e-6 ~threshold:1.0;
  Alcotest.(check bool) "no fixed point" true
    (try
       ignore (Dc.operating_point c);
       false
     with Dc.No_fixed_point n -> n > 0)

let test_dc_opamp_matches_transient () =
  let tc = Circuits.opamp () in
  let op = Dc.operating_point ~inputs:[ ("in", 1.0) ] tc.circuit in
  checkf 2e-2 "inverting gain at DC" (-4.0) (Dc.voltage op "out")

(* SPICE export *)

module Export = Amsvp_netlist.Export

let test_spice_export_shape () =
  let tc = Circuits.rlc_series () in
  let deck = Export.to_spice ~title:"rlc" tc.circuit in
  let contains needle =
    let n = String.length deck and m = String.length needle in
    let rec go i = i + m <= n && (String.sub deck i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title" true (contains "* rlc");
  Alcotest.(check bool) "resistor card" true (contains "Rr1 in n1 100");
  Alcotest.(check bool) "inductor card" true (contains "Ll1 n1 out 0.01");
  Alcotest.(check bool) "capacitor card" true (contains "Cc1 out 0 1e-06");
  Alcotest.(check bool) "input source annotated" true
    (contains "Vvin in 0 DC 0 ; external input in");
  Alcotest.(check bool) "terminated" true (contains ".end")

(* Sparse LU *)

module Sparse = Amsvp_mna.Sparse

(* A one-off sparse factor the way the fast engine computes one: the
   Markowitz analysis, then the numeric refactor along its pattern. *)
let sparse_factor ~n triplets = Sparse.refactor (Sparse.analyze ~n triplets) triplets

let test_sparse_matches_dense_mna () =
  List.iter
    (fun (tc : Circuits.testcase) ->
      let sys = System.build tc.circuit in
      let n = System.size sys in
      let dense = Matrix.lu_factor (System.stamp_matrix sys ~h:1e-6) in
      let sparse = sparse_factor ~n (System.stamp_triplets sys ~h:1e-6) in
      let b = Array.init n (fun i -> float_of_int ((i mod 7) - 3) /. 3.0) in
      let xd = Matrix.lu_solve dense b in
      let xs = Sparse.lu_solve sparse b in
      Array.iteri
        (fun i v ->
          if abs_float (v -. xs.(i)) > 1e-9 *. (1.0 +. abs_float v) then
            Alcotest.failf "%s: component %d differs: dense %g sparse %g"
              tc.label i v xs.(i))
        xd)
    [ Circuits.two_input (); Circuits.rc_ladder 8; Circuits.opamp ();
      Circuits.rlc_series () ]

let test_sparse_singular () =
  Alcotest.(check bool) "structural zero column" true
    (try
       ignore (sparse_factor ~n:2 [ (0, 0, 1.0); (1, 0, 1.0) ]);
       false
     with Sparse.Singular _ -> true)

let test_sparse_fill_stays_bounded_on_ladder () =
  (* An RC ladder is essentially banded: fill-in must stay linear in
     the circuit size (the dense factor is quadratic). *)
  let measure n =
    let tc = Circuits.rc_ladder n in
    let sys = System.build tc.circuit in
    let f =
      sparse_factor ~n:(System.size sys) (System.stamp_triplets sys ~h:1e-6)
    in
    (System.size sys, Sparse.nnz f)
  in
  let n1, z1 = measure 20 and n2, z2 = measure 40 in
  let density1 = float_of_int z1 /. float_of_int (n1 * n1) in
  let density2 = float_of_int z2 /. float_of_int (n2 * n2) in
  Alcotest.(check bool)
    (Printf.sprintf "density falls with size (%.3f -> %.3f)" density1 density2)
    true (density2 < density1);
  Alcotest.(check bool) "near-linear fill" true
    (float_of_int z2 < 2.6 *. float_of_int z1)

let prop_sparse_random_systems =
  QCheck.Test.make ~name:"sparse LU solves random diagonally-dominant systems"
    ~count:50
    QCheck.(list_of_size (Gen.int_range 5 40) (triple (int_range 0 9) (int_range 0 9) (float_range (-2.0) 2.0)))
    (fun entries ->
      let n = 10 in
      let triplets = entries @ List.init n (fun i -> (i, i, 25.0)) in
      let f = sparse_factor ~n triplets in
      let b = Array.init n (fun i -> float_of_int (i - 4)) in
      let x = Sparse.lu_solve f b in
      (* residual check against the assembled dense matrix *)
      let m = Matrix.create n in
      List.iter (fun (i, j, v) -> Matrix.add_to m i j v) triplets;
      let back = Matrix.mat_vec m x in
      Array.for_all2 (fun u w -> abs_float (u -. w) < 1e-8) back b)

(* AC small-signal analysis *)

module Ac = Amsvp_mna.Ac

let test_ac_rc_analytic () =
  (* Single-pole RC: |H| = 1/sqrt(1+(wRC)^2), phase = -atan(wRC). *)
  let tc = Circuits.rc_ladder 1 in
  let rc = 5.0e3 *. 25.0e-9 in
  List.iter
    (fun f ->
      let [ p ] =
        (Ac.analyze tc.circuit ~input:"in" ~output:tc.output ~freqs:[ f ]
          : Ac.point list)
      in
      let w = 2.0 *. Float.pi *. f in
      let expected = 1.0 /. sqrt (1.0 +. ((w *. rc) ** 2.0)) in
      checkf 1e-9 (Printf.sprintf "|H| at %g Hz" f) expected
        (Complex.norm p.Ac.response);
      checkf 1e-6 (Printf.sprintf "phase at %g Hz" f)
        (-.atan (w *. rc) *. 180.0 /. Float.pi)
        (Ac.phase_deg p))
    [ 10.0; 1.0e3; 1.0 /. (2.0 *. Float.pi *. rc); 100.0e3 ]
  [@warning "-8"]

let test_ac_rlc_resonance () =
  (* Series RLC: |H| across the capacitor peaks near f0 and equals
     1/(2 zeta) at f0 for moderate damping; zeta = 0.5 gives ~1. *)
  let tc = Circuits.rlc_series () in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (10.0e-3 *. 1.0e-6)) in
  let points =
    Ac.analyze tc.circuit ~input:"in" ~output:tc.output
      ~freqs:[ f0 /. 100.0; f0; f0 *. 100.0 ]
  in
  match points with
  | [ low; res; high ] ->
      checkf 1e-3 "DC gain 1" 1.0 (Complex.norm low.Ac.response);
      checkf 1e-3 "Q = 1/(2 zeta) at f0" 1.0 (Complex.norm res.Ac.response);
      Alcotest.(check bool) "rolloff" true (Complex.norm high.Ac.response < 1e-3)
  | _ -> Alcotest.fail "three points"

let test_ac_two_input_gain () =
  let tc = Circuits.two_input () in
  let points =
    Ac.analyze tc.circuit ~input:"in1" ~output:tc.output ~freqs:[ 100.0 ]
  in
  match points with
  | [ p ] ->
      (* Inverting path from in1: -R3/R1 = -10/3. *)
      checkf 1e-2 "summing path gain" (10.0 /. 3.0) (Complex.norm p.Ac.response);
      checkf 1.0 "inverting phase" 180.0 (abs_float (Ac.phase_deg p))
  | _ -> Alcotest.fail "one point"

let test_ac_matches_abstracted_gain () =
  (* The discrete-time abstracted model must track the network's AC
     response for frequencies well below 1/dt. *)
  let tc = Circuits.rc_ladder 2 in
  let dt = 1e-7 in
  let rep = Amsvp_core.Flow.abstract_testcase ~mode:`Exact tc ~dt in
  let freq = 2.0e3 in
  let measure_gain () =
    let runner = Amsvp_sf.Sfprogram.Runner.create rep.Amsvp_core.Flow.program in
    let stim = Stimulus.sine ~freq ~amplitude:1.0 in
    let t_stop = 10.0 /. freq in
    let tr = Amsvp_sf.Sfprogram.Runner.run runner ~stimuli:[| stim |] ~t_stop () in
    let n = Trace.length tr in
    let peak = ref 0.0 in
    for i = 2 * n / 3 to n - 1 do
      peak := max !peak (abs_float (Trace.value tr i))
    done;
    !peak
  in
  let time_domain = measure_gain () in
  let points = Ac.analyze tc.circuit ~input:"in" ~output:tc.output ~freqs:[ freq ] in
  match points with
  | [ p ] ->
      checkf 5e-3 "time-domain gain tracks AC" (Complex.norm p.Ac.response)
        time_domain
  | _ -> Alcotest.fail "one point"

let test_ac_errors () =
  let tc = Circuits.rc_ladder 1 in
  Alcotest.(check bool) "unknown input" true
    (try
       ignore (Ac.analyze tc.circuit ~input:"zz" ~output:tc.output ~freqs:[ 1.0 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad frequency" true
    (try
       ignore (Ac.analyze tc.circuit ~input:"in" ~output:tc.output ~freqs:[ 0.0 ]);
       false
     with Invalid_argument _ -> true)

(* Kirchhoff consistency: the topology equations of the Graph module
   must hold on the MNA solution at DC steady state. *)
let test_kirchhoff_consistency_at_dc () =
  List.iter
    (fun (tc : Circuits.testcase) ->
      let dc_inputs =
        List.map (fun (n, _) -> (n, Stimulus.constant 1.0)) tc.stimuli
      in
      let sys = System.build tc.circuit in
      let n = System.size sys in
      let m = Amsvp_mna.System.stamp_matrix sys ~h:1e-6 in
      let lu = Matrix.lu_factor m in
      (* Iterate to steady state with a large number of steps. *)
      let x = ref (Array.make n 0.0) in
      let rhs = Array.make n 0.0 in
      let inputs =
        Array.map (fun name -> List.assoc name dc_inputs 0.0) (System.inputs sys)
      in
      for _ = 1 to 5000 do
        System.stamp_rhs sys ~h:1e-6 ~state:!x ~inputs ~rhs;
        x := Matrix.lu_solve lu rhs
      done;
      let state = !x in
      let value v = System.read (System.locate sys v) state in
      (* Environment: potentials from node voltages, flows per device. *)
      let env (v : Expr.var) =
        match v.Expr.base with
        | Expr.Potential _ -> value v
        | Expr.Flow (name, "") -> (
            match Circuit.find tc.circuit name with
            | Some { Component.kind = Component.Capacitor _; _ } ->
                0.0 (* no current through capacitors at steady state *)
            | Some { Component.kind = Component.Vccs { gm; ctrl_pos; ctrl_neg }; _ } ->
                gm
                *. value (Expr.potential ctrl_pos ctrl_neg)
            | Some { Component.kind = Component.Isource (Component.Dc j); _ } -> j
            | Some _ -> value v
            | None -> Alcotest.failf "unknown device %s" name)
        | Expr.Flow _ | Expr.Signal _ | Expr.Param _ ->
            Alcotest.failf "unexpected variable %s" (Expr.var_name v)
      in
      let g = Graph.of_circuit tc.circuit in
      List.iter
        (fun eq ->
          let r = Expr.eval env (Eqn.residual eq) in
          if abs_float r > 1e-6 then
            Alcotest.failf "%s: %s residual %g" tc.label (Eqn.to_string eq) r)
        (Graph.kcl_equations g @ Graph.kvl_equations g))
    [ Circuits.two_input (); Circuits.rc_ladder 3; Circuits.opamp () ]

let prop_random_rc_ladder_dc_value =
  (* At DC, capacitors are open: the ladder output equals the input. *)
  QCheck.Test.make ~name:"random RC ladder settles to the input level" ~count:20
    QCheck.(pair (int_range 1 6) (float_range 0.5 4.0))
    (fun (n, level) ->
      let tc = Circuits.rc_ladder n in
      let r =
        Engine.eln_like tc.circuit
          ~inputs:[ ("in", Stimulus.constant level) ]
          ~output:tc.output ~dt:2e-6 ~t_stop:20e-3
      in
      abs_float (Trace.last_value r.trace -. level) < 1e-3)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mna"
    [
      ( "matrix",
        [
          Alcotest.test_case "known system" `Quick test_lu_solve_known_system;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "singular detected" `Quick test_singular_detected;
        ] );
      ( "dc",
        [
          Alcotest.test_case "voltage divider" `Quick test_voltage_divider;
          Alcotest.test_case "probe quantities known to the network" `Quick
            test_probe_refusal;
          Alcotest.test_case "conflicting sources singular" `Quick
            test_vsource_loop_singular;
          Alcotest.test_case "2IN gain" `Quick test_two_input_dc_gain;
          Alcotest.test_case "OA gain" `Quick test_opamp_dc_gain;
        ] );
      ( "transient",
        [
          Alcotest.test_case "RC charge curve" `Quick test_rc_charge_curve;
          Alcotest.test_case "RLC step response" `Quick test_rlc_step_response;
          Alcotest.test_case "spice vs eln" `Quick test_spice_matches_eln;
          Alcotest.test_case "engine stats" `Quick test_engine_stats;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
          Alcotest.test_case "stepper inputs" `Quick test_stepper_inputs;
        ] );
      ( "op",
        [
          Alcotest.test_case "divider and currents" `Quick
            test_dc_divider_and_currents;
          Alcotest.test_case "cap open / inductor short" `Quick
            test_dc_capacitor_open_inductor_short;
          Alcotest.test_case "PWL region iteration" `Quick
            test_dc_pwl_region_iteration;
          Alcotest.test_case "PWL regions without a fixed point" `Quick
            test_dc_pwl_no_fixed_point;
          Alcotest.test_case "opamp gain" `Quick test_dc_opamp_matches_transient;
          Alcotest.test_case "SPICE export" `Quick test_spice_export_shape;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "matches dense on MNA systems" `Quick
            test_sparse_matches_dense_mna;
          Alcotest.test_case "singular detected" `Quick test_sparse_singular;
          Alcotest.test_case "bounded fill on ladders" `Quick
            test_sparse_fill_stays_bounded_on_ladder;
        ] );
      ( "ac",
        [
          Alcotest.test_case "RC analytic response" `Quick test_ac_rc_analytic;
          Alcotest.test_case "RLC resonance" `Quick test_ac_rlc_resonance;
          Alcotest.test_case "2IN gain" `Quick test_ac_two_input_gain;
          Alcotest.test_case "matches abstracted model" `Quick
            test_ac_matches_abstracted_gain;
          Alcotest.test_case "errors" `Quick test_ac_errors;
        ] );
      ( "kirchhoff",
        [
          Alcotest.test_case "consistency at DC" `Quick
            test_kirchhoff_consistency_at_dc;
        ] );
      ("properties",
        qt
          [
            prop_lu_roundtrip;
            prop_sparse_random_systems;
            prop_random_rc_ladder_dc_value;
          ]);
    ]
