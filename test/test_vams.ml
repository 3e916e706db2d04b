(* Tests for the Verilog-AMS front-end: lexer, parser, elaborator,
   device recognition and the two conversion routes. *)

module Lexer = Amsvp_vams.Lexer
module Parser = Amsvp_vams.Parser
module Ast = Amsvp_vams.Ast
module Elaborate = Amsvp_vams.Elaborate
module Sources = Amsvp_vams.Sources
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Circuits = Amsvp_netlist.Circuits
module Engine = Amsvp_mna.Engine
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Metrics = Amsvp_util.Metrics
module Trace = Amsvp_util.Trace
module Stimulus = Amsvp_util.Stimulus

(* Lexer *)

let tokens src =
  List.filter_map
    (fun p -> match p.Lexer.token with Lexer.Eof -> None | t -> Some t)
    (Lexer.tokenize src)

let test_scale_factors () =
  let checkv s expected =
    match tokens s with
    | [ Lexer.Number f ] -> Alcotest.(check (float 1e-20)) s expected f
    | _ -> Alcotest.failf "expected one number for %s" s
  in
  checkv "5K" 5000.0;
  checkv "5k" 5000.0;
  checkv "25n" 25e-9;
  checkv "1.6K" 1600.0;
  checkv "40p" 40e-12;
  checkv "3M" 3e6;
  checkv "2.5" 2.5;
  checkv "1e-3" 1e-3;
  checkv "1.5e3" 1500.0

let test_suffix_vs_identifier () =
  (* "5kx" is the number 5 followed by identifier kx, not 5000·x. *)
  match tokens "5kx" with
  | [ Lexer.Number f; Lexer.Ident "kx" ] ->
      Alcotest.(check (float 0.0)) "no scale factor" 5.0 f
  | _ -> Alcotest.fail "expected number then identifier"

let test_comments_and_directives () =
  let src = "// line\n/* block\nspanning */ `include \"x.vams\"\nfoo" in
  match tokens src with
  | [ Lexer.Ident "foo" ] -> ()
  | _ -> Alcotest.fail "comments and directives should be skipped"

let test_contribution_operator () =
  match tokens "V(a) <+ 1;" with
  | [ Lexer.Ident "V"; Lexer.Punct "("; Lexer.Ident "a"; Lexer.Punct ")";
      Lexer.Punct "<+"; Lexer.Number 1.0; Lexer.Punct ";" ] ->
      ()
  | _ -> Alcotest.fail "expected <+ token"

let test_lex_error_position () =
  try
    ignore (Lexer.tokenize "a\n  @");
    Alcotest.fail "expected lex error"
  with Lexer.Lex_error (_, line, col) ->
    Alcotest.(check int) "line" 2 line;
    Alcotest.(check int) "column" 3 col

(* Parser *)

let test_parse_module_structure () =
  let design = Parser.parse Sources.primitives in
  Alcotest.(check int) "four primitives" 4 (List.length design);
  match Ast.find_module design "resistor" with
  | None -> Alcotest.fail "resistor module"
  | Some m ->
      Alcotest.(check (list string)) "ports" [ "p"; "n" ] m.Ast.ports;
      Alcotest.(check bool) "has analog item" true
        (List.exists
           (fun it ->
             match it.Ast.idesc with Ast.Analog _ -> true | _ -> false)
           m.Ast.items)

let test_parse_expression_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  match e.Ast.edesc with
  | Ast.Binop
      ( Ast.Add,
        { Ast.edesc = Ast.Number 1.0; _ },
        { Ast.edesc = Ast.Binop (Ast.Mul, _, _); _ } ) ->
      ()
  | _ -> Alcotest.failf "precedence broken: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parse_ternary () =
  let e = Parser.parse_expr_string "V(a) > 0 ? 1 : -1" in
  match e.Ast.edesc with
  | Ast.Ternary
      ( { Ast.edesc = Ast.Binop (Ast.Gt, _, _); _ },
        { Ast.edesc = Ast.Number 1.0; _ },
        _ ) ->
      ()
  | _ -> Alcotest.fail "ternary shape"

let test_spans_recorded () =
  (* "V(a) <+ r * I(a);" at line 5 of the resistor primitive: the
     contribution's span must point into the analog block. *)
  let design = Parser.parse ~file:"prim.vams" Sources.primitives in
  match Ast.find_module design "resistor" with
  | None -> Alcotest.fail "resistor module"
  | Some m ->
      Alcotest.(check string) "module file" "prim.vams"
        m.Ast.mspan.Amsvp_diag.Diag.file;
      let analog_spans =
        List.concat_map
          (fun it ->
            match it.Ast.idesc with
            | Ast.Analog stmts -> List.map (fun s -> s.Ast.sspan) stmts
            | _ -> [])
          m.Ast.items
      in
      Alcotest.(check bool) "has contribution span" true
        (List.exists
           (fun (s : Amsvp_diag.Diag.span) ->
             s.Amsvp_diag.Diag.file = "prim.vams" && s.Amsvp_diag.Diag.line > 1)
           analog_spans)

let test_parse_error_reported () =
  try
    ignore (Parser.parse "module m(a; endmodule");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error (_, _, _) -> ()

(* Elaboration *)

let test_flatten_rc3 () =
  let design = Parser.parse (Sources.rc_ladder 3) in
  let flat = Elaborate.flatten design ~top:"rc3" in
  Alcotest.(check int) "six branch contributions" 6
    (List.length flat.Elaborate.contributions);
  Alcotest.(check (list string)) "input ports" [ "in" ] flat.Elaborate.input_ports;
  Alcotest.(check bool) "conservative" true
    (Elaborate.classify flat = `Conservative)

let test_to_circuit_rc3 () =
  let design = Parser.parse (Sources.rc_ladder 3) in
  let flat = Elaborate.flatten design ~top:"rc3" in
  let circuit = Elaborate.to_circuit flat in
  (* 3 R + 3 C + the implicit input driver. *)
  Alcotest.(check int) "devices" 7 (Circuit.device_count circuit);
  Alcotest.(check (list string)) "input signals" [ "in" ]
    (Circuit.input_signals circuit)

let test_parameter_override () =
  let src =
    Sources.primitives
    ^ {|
module top(in);
  input electrical in;
  resistor #(.r(42)) rx (.p(in), .n(gnd));
endmodule
|}
  in
  let flat = Elaborate.flatten (Parser.parse src) ~top:"top" in
  let circuit = Elaborate.to_circuit flat in
  let r =
    List.find
      (fun (d : Component.t) ->
        match d.Component.kind with Component.Resistor _ -> true | _ -> false)
      (Circuit.devices circuit)
  in
  (match r.Component.kind with
  | Component.Resistor v -> Alcotest.(check (float 0.0)) "override" 42.0 v
  | _ -> assert false)

let test_positional_connections () =
  let src =
    Sources.primitives
    ^ {|
module top(in);
  input electrical in;
  resistor rx (in, gnd);
endmodule
|}
  in
  let flat = Elaborate.flatten (Parser.parse src) ~top:"top" in
  let circuit = Elaborate.to_circuit flat in
  let rx =
    List.find (fun (d : Component.t) -> d.Component.name <> "__drv_in")
      (Circuit.devices circuit)
  in
  Alcotest.(check string) "pos" "in" rx.Component.pos;
  Alcotest.(check string) "neg" "gnd" rx.Component.neg

let test_vcvs_recognition () =
  let design = Parser.parse Sources.two_input in
  let flat = Elaborate.flatten design ~top:"two_in" in
  let circuit = Elaborate.to_circuit flat in
  let vcvs =
    List.filter
      (fun (d : Component.t) ->
        match d.Component.kind with Component.Vcvs _ -> true | _ -> false)
      (Circuit.devices circuit)
  in
  match vcvs with
  | [ { Component.kind = Component.Vcvs { gain; ctrl_pos; ctrl_neg }; _ } ] ->
      Alcotest.(check (float 0.0)) "gain" (-100_000.0) gain;
      (* V(inp) - V(inn) with inp = gnd: control pair is (x, gnd)
         with the negative gain folded in, or (gnd, x) — accept the
         canonical result of recognition. *)
      Alcotest.(check bool) "controls mention x" true
        (ctrl_pos = "x" || ctrl_neg = "x")
  | _ -> Alcotest.fail "expected exactly one VCVS"

let test_named_branch () =
  let src =
    {|
module top(in);
  input electrical in;
  electrical a;
  branch (a, gnd) load;
  analog begin
    V(load) <+ 100 * I(load);
    I(in, a) <+ 0.5 * V(in, a);
  end
endmodule
|}
  in
  let flat = Elaborate.flatten (Parser.parse src) ~top:"top" in
  let circuit = Elaborate.to_circuit flat in
  Alcotest.(check int) "three devices (incl. driver)" 3
    (Circuit.device_count circuit)

let test_ground_alias () =
  let src =
    {|
module top(in);
  input electrical in;
  ground vss;
  resistor rx (.p(in), .n(vss));
endmodule
|}
    |> fun body -> Sources.primitives ^ body
  in
  let flat = Elaborate.flatten (Parser.parse src) ~top:"top" in
  let circuit = Elaborate.to_circuit flat in
  let rx =
    List.find (fun (d : Component.t) -> d.Component.name <> "__drv_in")
      (Circuit.devices circuit)
  in
  Alcotest.(check string) "vss is ground" "gnd" rx.Component.neg

let expect_elab_error name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Elaborate.Elab_error _ -> true)

let test_unknown_module () =
  expect_elab_error "unknown module" (fun () ->
      Elaborate.flatten
        (Parser.parse "module top(a); input electrical a; widget w (.p(a)); endmodule")
        ~top:"top")

(* The error and its span, or [None] when elaboration succeeds. *)
let elab_error src ~top =
  match Elaborate.flatten (Parser.parse ~file:"k.vams" src) ~top with
  | _ -> None
  | exception Elaborate.Elab_error (msg, sp) ->
      Some (msg, Option.map (fun (s : Amsvp_diag.Diag.span) -> (s.line, s.col)) sp)

let resistances flat =
  List.filter_map
    (fun (d : Component.t) ->
      match d.Component.kind with Component.Resistor r -> Some r | _ -> None)
    (Circuit.devices (Elaborate.to_circuit flat))

let test_parameter_scope () =
  (* A default reads the parameters declared before it. *)
  let src =
    "module k(a);\n\
    \  inout electrical a;\n\
    \  parameter real r = 1.5;\n\
    \  parameter real r2 = 2.0 * r;\n\
    \  analog V(a) <+ r2 * I(a);\n\
     endmodule\n"
  in
  Alcotest.(check (list (float 0.0))) "r2 = 2 r" [ 3.0 ]
    (resistances (Elaborate.flatten (Parser.parse src) ~top:"k"))

let test_top_level_error_names_module () =
  (* A default cannot read a later parameter; the error at top level
     names the module instead of an empty instance path. *)
  let src =
    "module k(a);\n\
    \  inout electrical a;\n\
    \  parameter real r2 = 2.0 * r;\n\
    \  parameter real r = 1.5;\n\
    \  analog V(a) <+ r2 * I(a);\n\
     endmodule\n"
  in
  Alcotest.(check (option (pair string (option (pair int int)))))
    "later parameter out of scope"
    (Some ("unknown parameter r in k", Some (3, 29)))
    (elab_error src ~top:"k")

let test_misspelled_override () =
  let src =
    Sources.primitives
    ^ "module top(a); input electrical a;\n\
      \  resistor #(.rr(5.0)) r1 (.p(a), .n(gnd));\n\
       endmodule"
  in
  match elab_error src ~top:"top" with
  | Some (msg, Some pos) ->
      Alcotest.(check string) "message" "module resistor has no parameter rr" msg;
      (* at the name [rr], not at the value [5.0] *)
      let line = List.length (String.split_on_char '\n' Sources.primitives) + 1 in
      Alcotest.(check (pair int int)) "located at .rr" (line, 15) pos
  | Some (_, None) -> Alcotest.fail "override error without a span"
  | None -> Alcotest.fail "misspelled override accepted"

let test_unknown_port () =
  let src =
    Sources.primitives
    ^ "module top(a); input electrical a; resistor r1 (.q(a)); endmodule"
  in
  expect_elab_error "unknown port" (fun () ->
      Elaborate.flatten (Parser.parse src) ~top:"top")

let test_pwl_recognition () =
  let src =
    {|
module top(a);
  input electrical a;
  electrical k;
  analog begin
    V(a, k) <+ 1000 * I(a, k);
    I(k, gnd) <+ (V(k, gnd) >= 0.2) ? 0.01 * V(k, gnd) : 1e-9 * V(k, gnd);
  end
endmodule
|}
  in
  let flat = Elaborate.flatten (Parser.parse src) ~top:"top" in
  let circuit = Elaborate.to_circuit flat in
  let pwl =
    List.filter
      (fun (d : Component.t) ->
        match d.Component.kind with
        | Component.Pwl_conductance _ -> true
        | _ -> false)
      (Circuit.devices circuit)
  in
  match pwl with
  | [ { Component.kind = Component.Pwl_conductance { g_on; g_off; threshold }; _ } ] ->
      Alcotest.(check (float 0.0)) "g_on" 0.01 g_on;
      Alcotest.(check (float 0.0)) "g_off" 1e-9 g_off;
      Alcotest.(check (float 0.0)) "threshold" 0.2 threshold
  | _ -> Alcotest.fail "expected one PWL device"

let test_nonlinear_device_rejected () =
  let src =
    {|
module top(a);
  input electrical a;
  analog I(a, gnd) <+ V(a, gnd) * V(a, gnd);
endmodule
|}
  in
  expect_elab_error "nonlinear constitutive equation" (fun () ->
      let flat = Elaborate.flatten (Parser.parse src) ~top:"top" in
      Elaborate.to_circuit flat)

(* Conversion routes *)

let test_procedural_variables () =
  (* Fig. 2's signal-flow block style: intermediate real variables. *)
  let src =
    {|
module gainstage(in, out);
  input electrical in;
  output electrical out;
  parameter real g = 2.5;
  real vd, vo;
  analog begin
    vd = V(in);
    vo = g * vd + 1.0;
    V(out) <+ vo;
  end
endmodule
|}
  in
  let rep =
    Elaborate.parse_and_abstract src ~top:"gainstage"
      ~outputs:[ Expr.potential "out" "gnd" ]
      ~dt:1e-6
  in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let tr =
    Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant 2.0 |]
      ~t_stop:1e-5 ()
  in
  Alcotest.(check (float 1e-9)) "2.5*2+1" 6.0 (Trace.last_value tr)

let test_conditional_assignment () =
  (* A variable assigned under an if keeps its previous value in the
     other region (symbolic execution folds the guard in). *)
  let src =
    {|
module clampstage(in, out);
  input electrical in;
  output electrical out;
  real x;
  analog begin
    x = V(in);
    if (V(in) > 1.0)
      x = 1.0;
    V(out) <+ x;
  end
endmodule
|}
  in
  let rep =
    Elaborate.parse_and_abstract src ~top:"clampstage"
      ~outputs:[ Expr.potential "out" "gnd" ]
      ~dt:1e-6
  in
  let run level =
    let runner = Sfprogram.Runner.create rep.Flow.program in
    let tr =
      Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant level |]
        ~t_stop:1e-5 ()
    in
    Trace.last_value tr
  in
  Alcotest.(check (float 1e-9)) "below threshold passes" 0.5 (run 0.5);
  Alcotest.(check (float 1e-9)) "above threshold clamps" 1.0 (run 3.0)

let test_signal_flow_classification () =
  let flat =
    Elaborate.flatten (Parser.parse Sources.signal_flow_filter) ~top:"sf_lowpass"
  in
  Alcotest.(check bool) "signal flow" true (Elaborate.classify flat = `Signal_flow)

let test_signal_flow_conversion_accuracy () =
  (* The converted sf_lowpass must match the analytic first-order
     response. *)
  let dt = 1e-6 in
  let rep =
    Elaborate.parse_and_abstract Sources.signal_flow_filter ~top:"sf_lowpass"
      ~outputs:[ Expr.potential "out" "gnd" ]
      ~dt
  in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let tr =
    Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant 1.0 |]
      ~t_stop:1e-3 ()
  in
  let tau = 125e-6 in
  let expected = 1.0 -. exp (-.1e-3 /. tau) in
  Alcotest.(check (float 1e-2)) "step response" expected (Trace.last_value tr)

let test_parse_and_abstract_matches_programmatic () =
  let dt = 50e-9 and t_stop = 1e-3 in
  List.iter
    (fun (label, src) ->
      let tc = Option.get (Circuits.by_name label) in
      let rep =
        Elaborate.parse_and_abstract src ~top:(Sources.top_name_of label)
          ~outputs:[ Expr.potential "out" "gnd" ]
          ~dt
      in
      let runner = Sfprogram.Runner.create rep.Flow.program in
      let stims =
        Array.of_list
          (List.map
             (fun n -> List.assoc n tc.Circuits.stimuli)
             rep.Flow.program.Sfprogram.inputs)
      in
      let mine = Sfprogram.Runner.run runner ~stimuli:stims ~t_stop () in
      let reference =
        Engine.run_testcase_spice ~substeps:1 ~iterations:1 tc ~dt ~t_stop
      in
      let err =
        Metrics.nrmse_traces ~reference:reference.Engine.trace mine ~t0:0.0
          ~dt:(dt *. 20.0) ~n:999
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s NRMSE=%g" label err)
        true (err < 1e-10))
    [
      ("RC1", Sources.rc_ladder 1);
      ("2IN", Sources.two_input);
      ("OA", Sources.opamp);
    ]

let test_active_filter_elaborates () =
  let rep =
    Elaborate.parse_and_abstract Sources.active_filter ~top:"active_filter"
      ~outputs:[ Expr.potential "out" "gnd" ]
      ~dt:50e-9
  in
  Alcotest.(check bool) "cone nonempty" true (rep.Flow.definitions > 0)

(* Properties *)

let prop_rcn_sources_elaborate =
  QCheck.Test.make ~name:"generated RCn sources elaborate to 2n+1 devices"
    ~count:10
    QCheck.(int_range 1 24)
    (fun n ->
      let flat =
        Elaborate.flatten (Parser.parse (Sources.rc_ladder n))
          ~top:(Printf.sprintf "rc%d" n)
      in
      let circuit = Elaborate.to_circuit flat in
      Circuit.device_count circuit = (2 * n) + 1)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vams"
    [
      ( "lexer",
        [
          Alcotest.test_case "scale factors" `Quick test_scale_factors;
          Alcotest.test_case "suffix vs identifier" `Quick
            test_suffix_vs_identifier;
          Alcotest.test_case "comments and directives" `Quick
            test_comments_and_directives;
          Alcotest.test_case "contribution operator" `Quick
            test_contribution_operator;
          Alcotest.test_case "error position" `Quick test_lex_error_position;
        ] );
      ( "parser",
        [
          Alcotest.test_case "module structure" `Quick test_parse_module_structure;
          Alcotest.test_case "precedence" `Quick test_parse_expression_precedence;
          Alcotest.test_case "ternary" `Quick test_parse_ternary;
          Alcotest.test_case "parse error" `Quick test_parse_error_reported;
          Alcotest.test_case "spans recorded" `Quick test_spans_recorded;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "flatten rc3" `Quick test_flatten_rc3;
          Alcotest.test_case "to_circuit rc3" `Quick test_to_circuit_rc3;
          Alcotest.test_case "parameter override" `Quick test_parameter_override;
          Alcotest.test_case "positional connections" `Quick
            test_positional_connections;
          Alcotest.test_case "VCVS recognition" `Quick test_vcvs_recognition;
          Alcotest.test_case "named branch" `Quick test_named_branch;
          Alcotest.test_case "ground alias" `Quick test_ground_alias;
          Alcotest.test_case "unknown module" `Quick test_unknown_module;
          Alcotest.test_case "unknown port" `Quick test_unknown_port;
          Alcotest.test_case "parameter scope" `Quick test_parameter_scope;
          Alcotest.test_case "top-level error names module" `Quick
            test_top_level_error_names_module;
          Alcotest.test_case "misspelled override" `Quick
            test_misspelled_override;
          Alcotest.test_case "nonlinear device rejected" `Quick
            test_nonlinear_device_rejected;
          Alcotest.test_case "PWL recognition" `Quick test_pwl_recognition;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "procedural variables" `Quick
            test_procedural_variables;
          Alcotest.test_case "conditional assignment" `Quick
            test_conditional_assignment;
          Alcotest.test_case "signal-flow classification" `Quick
            test_signal_flow_classification;
          Alcotest.test_case "signal-flow accuracy" `Quick
            test_signal_flow_conversion_accuracy;
          Alcotest.test_case "matches programmatic circuits" `Quick
            test_parse_and_abstract_matches_programmatic;
          Alcotest.test_case "active filter" `Quick test_active_filter_elaborates;
        ] );
      ("properties", qt [ prop_rcn_sources_elaborate ]);
    ]
