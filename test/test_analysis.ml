(* Tests for the static analyzer: golden diagnostics per code, the
   acceptance scenario (three distinct codes, each with a correct
   source location, in text and JSON), the Flow pre-flight gates, and
   the lint/abstract consistency property. *)

module Diag = Amsvp_diag.Diag
module Json = Amsvp_util.Json
module Lint = Amsvp_analysis.Lint
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Flow = Amsvp_core.Flow
module Parser = Amsvp_vams.Parser
module Elaborate = Amsvp_vams.Elaborate
module Vparser = Amsvp_vhdlams.Vparser
module Velaborate = Amsvp_vhdlams.Velaborate
module Spec = Amsvp_sweep.Spec

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let lint ?lang ?inputs ?dt src = Lint.lint ?lang ?inputs ?dt ~file:"m.vams" src

let codes fs = List.sort_uniq compare (List.map (fun f -> f.Diag.code) fs)

let has code fs = List.exists (fun f -> f.Diag.code = code) fs

let check_has src code =
  let fs = lint src in
  if not (has code fs) then
    Alcotest.failf "expected %s, got: %s" code (String.concat "," (codes fs))

(* Golden fixtures: each seeded defect reports its code. *)

let test_frontend_codes () =
  check_has "module m(); analog I(a,gnd) <+ 1.0 @ 2.0; endmodule" "AMS001";
  check_has "module ;" "AMS002";
  check_has "" "AMS003";
  (* an instance of an unknown module is an elaboration error *)
  check_has
    "module m(); electrical a;\n  nosuch u1 (.p(a), .n(gnd));\nendmodule"
    "AMS003"

let test_ast_codes () =
  check_has "module m(); analog I(x,gnd) <+ 1.0e-3; endmodule" "AMS010";
  check_has
    "module m(); electrical a; parameter real unused = 1;\n\
     analog I(a,gnd) <+ 1.0e-3 * V(a,gnd); endmodule"
    "AMS011";
  check_has
    "module m(in); input electrical in;\nanalog V(in,gnd) <+ 1.0; endmodule"
    "AMS012";
  check_has
    "module m(); electrical a;\n\
     analog begin\n\
    \  I(a,gnd) <+ 1.0e-3 * V(a,gnd);\n\
    \  I(a,gnd) <+ 2.0e-3 * V(a,gnd);\n\
     end\n\
     endmodule"
    "AMS013";
  check_has
    "module m(); electrical a, b;\n\
     analog begin\n\
    \  I(b,gnd) <+ 1.0e-3 * V(b,gnd);\n\
    \  V(a,gnd) <+ 2.0 * V(a,gnd) + V(b,gnd);\n\
     end\n\
     endmodule"
    "AMS014";
  check_has
    "module m(); electrical a;\n\
     analog I(a,gnd) <+ ddt(ddt(V(a,gnd)));\nendmodule"
    "AMS015";
  check_has
    "module m(); electrical a; parameter real d = 0;\n\
     analog I(a,gnd) <+ V(a,gnd) / d;\nendmodule"
    "AMS016"

let test_clean_models_lint_clean () =
  let check_clean label fs =
    Alcotest.(check (list string)) label [] (codes fs)
  in
  check_clean "rc ladder" (lint (Amsvp_vams.Sources.rc_ladder 3));
  check_clean "signal flow" (lint Amsvp_vams.Sources.signal_flow_filter);
  check_clean "two-input" (lint Amsvp_vams.Sources.two_input);
  check_clean "vhdl rc"
    (lint ~lang:`Vhdl_ams ~inputs:[ "tin" ]
       (Amsvp_vhdlams.Vsources.rc_ladder 2))

let test_signal_flow_codes () =
  (* reading a never-assigned quantity *)
  check_has
    "module m(in, out); input electrical in; output electrical out;\n\
     analog V(out) <+ V(in) + V(ghost);\nendmodule"
    "AMS030";
  (* zero-delay ordering violation: x is read before its assignment *)
  check_has
    "module m(in, out); input electrical in; output electrical out;\n\
     electrical x;\n\
     analog begin\n\
    \  V(out) <+ 2.0 * V(x);\n\
    \  V(x) <+ V(in);\n\
     end\n\
     endmodule"
    "AMS040";
  (* nonlinear self-reference is outside the linear direct conversion *)
  check_has
    "module m(in, out); input electrical in; output electrical out;\n\
     analog V(out) <+ V(in) - V(out) * V(out);\nendmodule"
    "AMS042"

(* The direct conversion tells an undefined quantity or output
   (AMS030) from an ordering violation (AMS040) by exception, not by
   message text; the ordering one carries the reader and what it reads,
   which is what locates the finding. *)
let test_signal_flow_typed_errors () =
  let v n = Expr.potential n "gnd" in
  let convert ~outputs contributions =
    ignore
      (Flow.convert_signal_flow ~name:"t" ~inputs:[ "in" ] ~outputs
         ~contributions ~dt:1e-6)
  in
  let raises_undefined label f =
    Alcotest.(check bool) label true
      (match f () with
      | () -> false
      | exception Amsvp_sf.Sfprogram.Undefined _ -> true)
  in
  raises_undefined "output never assigned" (fun () ->
      convert ~outputs:[ v "ghost" ] [ (v "out", Expr.var (Expr.signal "in")) ]);
  raises_undefined "read of an unknown quantity" (fun () ->
      convert ~outputs:[ v "out" ]
        [ (v "out", Expr.Ddt (Expr.var (v "ghost"))) ]);
  Alcotest.(check bool) "ordering names the reader and what it reads" true
    (match
       convert ~outputs:[ v "out" ]
         [
           (v "out", Expr.var (v "x"));
           (v "x", Expr.var (Expr.signal "in"));
         ]
     with
    | () -> false
    | exception Amsvp_sf.Sfprogram.Read_before_assigned { reader; var } ->
        Expr.equal_var reader (v "out") && Expr.equal_var var (v "x"))

let test_stability_warning () =
  (* tau = rc = 125us; dt = 1s is far beyond it *)
  let src =
    "module m(in, out); input electrical in; output electrical out;\n\
     analog begin\n\
    \  I(in,out) <+ V(in,out) / 5.0e3;\n\
    \  I(out,gnd) <+ 25.0e-9 * ddt(V(out,gnd));\n\
     end\n\
     endmodule"
  in
  let fs = lint ~dt:1.0 src in
  Alcotest.(check bool) "AMS041 at large dt" true (has "AMS041" fs);
  let fs = lint ~dt:1.0e-6 src in
  Alcotest.(check bool) "quiet at small dt" false (has "AMS041" fs)

(* Full-text golden baselines: every fixture under [fixtures/] is
   linted and its complete [Diag.report_to_text] report — codes,
   severities, positions, messages and the summary line — is diffed
   against the checked-in [.golden] file, so any drift in wording or
   location shows up as a test failure with both texts printed.

   To regenerate after an intentional change:

     AMSVP_GOLDEN_REGEN=1 dune exec test/test_analysis.exe -- test baselines
     cp _build/default/test/fixtures/*.golden test/fixtures/
*)

(* [(source, amplitude_budget)] — the budget feeds the AMS063 pass for
   the fixtures that exercise it. [base.vams] is diffed against
   [base.golden]; a VHDL-AMS [base.vhd], linted with input [tin],
   against [base.vhd.golden]. *)
let golden_fixtures =
  [
    ("lint_showcase.vams", None);
    ("lint_showcase.vhd", None);
    ("lint_unused.vams", None);
    ("lint_ordering.vams", None);
    ("absint_div0.vams", None);
    ("absint_nonfinite.vams", None);
    ("absint_const.vams", None);
    ("absint_amplitude.vams", Some 5.0);
  ]

(* [dune runtest] runs from the test directory, [dune exec] from the
   project root: resolve fixtures next to the executable, where dune
   placed the (deps) copies either way. *)
let fixture_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "fixtures"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_baselines () =
  let regen = Sys.getenv_opt "AMSVP_GOLDEN_REGEN" = Some "1" in
  List.iter
    (fun (source, amplitude_budget) ->
      let vhdl = Filename.check_suffix source ".vhd" in
      let vams = Filename.concat fixture_dir source in
      let golden =
        Filename.concat fixture_dir
          (if vhdl then source ^ ".golden"
           else Filename.chop_suffix source ".vams" ^ ".golden")
      in
      let report =
        Diag.report_to_text
          (Lint.lint ?amplitude_budget
             ~lang:(if vhdl then `Vhdl_ams else `Verilog_ams)
             ~inputs:[ "tin" ] ~file:("fixtures/" ^ source) (read_file vams))
        ^ "\n"
      in
      if regen then begin
        (* The previous golden arrives as a read-only copy of the
           source file; unlink it before writing the fresh one. *)
        (try Sys.remove golden with Sys_error _ -> ());
        let oc = open_out_bin golden in
        output_string oc report;
        close_out oc
      end
      else if not (Sys.file_exists golden) then
        Alcotest.failf "%s missing — run with AMSVP_GOLDEN_REGEN=1" golden
      else
        let expected = read_file golden in
        if not (String.equal expected report) then
          Alcotest.failf
            "%s drifted from its baseline.\n--- expected\n%s--- got\n%s"
            vams expected report)
    golden_fixtures

(* One defect, one finding: [Elaborate.abstract] — what [amsvp
   abstract], [simulate] and [sweep --file] run — rejects each defective
   fixture with a finding [Lint.lint] reports too, same code, span and
   message. *)
let test_abstract_lint_parity () =
  List.iter
    (fun (source, lang, top, out) ->
      let file = "fixtures/" ^ source in
      let src = read_file (Filename.concat fixture_dir source) in
      let flat =
        match lang with
        | `Verilog_ams -> Elaborate.flatten (Parser.parse ~file src) ~top
        | `Vhdl_ams ->
            Velaborate.flatten (Vparser.parse ~file src) ~top
              ~inputs:[ "tin" ]
      in
      let linted = Lint.lint ~lang ~inputs:[ "tin" ] ~file src in
      match
        Elaborate.abstract flat ~outputs:[ Expr.potential out "gnd" ]
          ~dt:50e-9
      with
      | _ -> Alcotest.failf "%s: the abstraction should be rejected" source
      | exception Diag.Rejected f ->
          let same (g : Diag.finding) =
            g.Diag.code = f.Diag.code
            && g.Diag.span = f.Diag.span
            && g.Diag.message = f.Diag.message
          in
          if not (List.exists same linted) then
            Alcotest.failf "%s: %s is not among lint's findings:\n%s" source
              (Diag.to_text f)
              (Diag.report_to_text linted))
    [
      ("lint_undefined.vams", `Verilog_ams, "undefined", "out");
      ("lint_showcase.vams", `Verilog_ams, "showcase", "out");
      ("lint_showcase.vhd", `Vhdl_ams, "showcase", "tout");
      ("lint_ordering.vams", `Verilog_ams, "ordering", "out");
    ]

(* An output over a node the model does not have is an AMS030 finding
   on the conservative route as on the signal-flow one, never a raw
   exception; the zero-delay ordering defect is located at the
   contribution that reads too early. *)
let test_user_errors_are_findings () =
  let examples =
    Filename.concat (Filename.dirname Sys.executable_name) "../examples"
  in
  let rejected ~file ~top ~out =
    let src =
      read_file
        (if Filename.is_relative file then Filename.concat examples file
         else file)
    in
    let flat = Elaborate.flatten (Parser.parse ~file src) ~top in
    match Elaborate.abstract flat ~outputs:[ out ] ~dt:50e-9 with
    | _ -> Alcotest.failf "%s: the abstraction should be rejected" file
    | exception Diag.Rejected f -> f
  in
  let zig = Expr.potential "zig" "gnd" in
  List.iter
    (fun (file, top) ->
      let f = rejected ~file ~top ~out:zig in
      Alcotest.(check string) (file ^ ": code") "AMS030" f.Diag.code)
    [ ("rc_lowpass.vams", "rc_lowpass"); ("sf_lowpass.vams", "sf_lowpass") ];
  let f =
    rejected
      ~file:(Filename.concat fixture_dir "lint_ordering.vams")
      ~top:"ordering" ~out:(Expr.potential "out" "gnd")
  in
  Alcotest.(check string) "ordering code" "AMS040" f.Diag.code;
  Alcotest.(check (option (pair int int))) "at the early read" (Some (12, 5))
    (Option.map
       (fun (sp : Diag.span) -> (sp.Diag.line, sp.Diag.col))
       f.Diag.span)

(* [lint --input-bound]: widening the input box widens the proven
   output range the AMS063 message reports (the fixture's gain is 100). *)
let test_input_bound_widens_ranges () =
  let src = read_file (Filename.concat fixture_dir "absint_amplitude.vams") in
  let message input_bound =
    match
      List.filter
        (fun f -> f.Diag.code = "AMS063")
        (Lint.lint ~amplitude_budget:5.0 ?input_bound ~file:"a.vams" src)
    with
    | [ f ] -> f.Diag.message
    | fs -> Alcotest.failf "expected one AMS063, got %d" (List.length fs)
  in
  Alcotest.(check bool) "default box" true
    (contains_substring (message None) "[-100, 100]");
  Alcotest.(check bool) "inputs within +-10" true
    (contains_substring (message (Some 10.0)) "[-1000, 1000]")

(* The acceptance scenario: one model with a floating island, an
   under-determined sensed net and a zero-default divisor reports three
   distinct codes, each anchored at the right source position. *)

let showcase =
  {|module helper(a, b);
  inout electrical a, b;
  parameter real div0 = 0;
  analog begin
    I(a,b) <+ V(a,b) / div0;
  end
endmodule

module showcase(in, out);
  input electrical in;
  output electrical out;
  electrical s;
  electrical f1, f2;
  analog begin
    V(out,gnd) <+ 2.0 * V(s,gnd);
    I(f1,f2) <+ 1.0e-3 * V(f1,f2);
  end
endmodule|}

let find code fs =
  match List.find_opt (fun f -> f.Diag.code = code) fs with
  | Some f -> f
  | None -> Alcotest.failf "missing %s" code

let test_acceptance_scenario () =
  let fs = Diag.apply Diag.default_config (lint showcase) in
  let at code line col =
    let f = find code fs in
    match f.Diag.span with
    | None -> Alcotest.failf "%s has no span" code
    | Some sp ->
        Alcotest.(check (pair int int))
          (code ^ " position") (line, col)
          (sp.Diag.line, sp.Diag.col)
  in
  (* the divisor itself; the sensing contribution; the island's one *)
  at "AMS016" 5 24;
  at "AMS030" 15 5;
  at "AMS020" 16 5;
  let text = Diag.report_to_text fs in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("text has " ^ needle) true
        (contains_substring text needle))
    [
      "m.vams:5:24: error[AMS016]";
      "m.vams:15:5: error[AMS030]";
      "m.vams:16:5: error[AMS020]";
      "V(s,gnd)";
    ];
  let json = Json.parse (Diag.report_to_json ~file:"m.vams" fs) in
  Alcotest.(check (option string)) "json file" (Some "m.vams")
    (Json.mem_string "file" json);
  let findings = Json.mem_list "findings" json in
  let json_has what p =
    Alcotest.(check bool) ("json has " ^ what) true (List.exists p findings)
  in
  List.iter
    (fun c -> json_has c (fun f -> Json.mem_string "code" f = Some c))
    [ "AMS016"; "AMS030"; "AMS020" ];
  json_has "line 15" (fun f -> Json.mem_float "line" f = Some 15.0);
  json_has "subject V(s,gnd)" (fun f ->
      Json.mem_string "subject" f = Some "V(s,gnd)");
  (* SARIF: one result per finding, in order, carrying its code and
     line. *)
  let sarif = Json.parse (Diag.report_to_sarif fs) in
  Alcotest.(check (option string)) "sarif version" (Some "2.1.0")
    (Json.mem_string "version" sarif);
  let results =
    match Json.mem_list "runs" sarif with
    | [ run ] -> Json.mem_list "results" run
    | runs -> Alcotest.failf "expected one SARIF run, got %d" (List.length runs)
  in
  Alcotest.(check int) "one sarif result per finding" (List.length fs)
    (List.length results);
  List.iter2
    (fun (f : Diag.finding) r ->
      Alcotest.(check (option string)) "ruleId" (Some f.Diag.code)
        (Json.mem_string "ruleId" r);
      let start_line =
        match Json.mem_list "locations" r with
        | [ loc ] ->
            Option.bind (Json.member "physicalLocation" loc) (fun pl ->
                Option.bind (Json.member "region" pl)
                  (Json.mem_float "startLine"))
        | _ -> None
      in
      Alcotest.(check (option (float 0.0)))
        (f.Diag.code ^ " startLine")
        (Option.map (fun s -> float_of_int s.Diag.line) f.Diag.span)
        start_line)
    fs results

let test_werror_and_suppression () =
  let fs = lint showcase in
  let upgraded = Diag.apply { Diag.werror = true; suppress = [] } fs in
  Alcotest.(check bool) "werror leaves no warnings" false
    (List.exists (fun f -> f.Diag.severity = Diag.Warning) upgraded);
  let muted = Diag.apply { Diag.werror = false; suppress = [ "AMS020" ] } fs in
  Alcotest.(check bool) "AMS020 suppressed" false (has "AMS020" muted);
  Alcotest.(check bool) "others kept" true (has "AMS030" muted)

(* Flow pre-flight gates: the same codes, raised as [Diag.Rejected]
   instead of a deep solver exception. *)

let rejected_code f =
  try
    ignore (f ());
    Alcotest.fail "expected Diag.Rejected"
  with Diag.Rejected finding -> finding.Diag.code

let test_flow_gate_topology () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"v1" ~pos:"a" ~neg:"gnd" (Component.Dc 1.0);
  Circuit.add_vsource c ~name:"v2" ~pos:"a" ~neg:"gnd" (Component.Dc 2.0);
  Alcotest.(check string) "voltage-source loop" "AMS022"
    (rejected_code (fun () ->
         Flow.abstract_circuit c
           ~outputs:[ Expr.potential "a" "gnd" ]
           ~dt:50e-9))

let test_flow_gate_solvability () =
  (* a VCVS sensing a net no equation ever solves *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"v1" ~pos:"in" ~neg:"gnd" (Component.Dc 1.0);
  Circuit.add_vcvs c ~name:"e1" ~pos:"out" ~neg:"gnd" ~gain:2.0 ~ctrl_pos:"s"
    ~ctrl_neg:"gnd";
  Circuit.add_resistor c ~name:"rl" ~pos:"out" ~neg:"gnd" 1.0e3;
  let finding =
    try
      ignore
        (Flow.abstract_circuit c
           ~outputs:[ Expr.potential "out" "gnd" ]
           ~dt:50e-9);
      Alcotest.fail "expected Diag.Rejected"
    with Diag.Rejected f -> f
  in
  Alcotest.(check string) "under-determined" "AMS030" finding.Diag.code;
  (* which member of the deficient block ends unmatched is
     order-dependent; the class of the message is what is stable *)
  Alcotest.(check bool) "says under-determined" true
    (contains_substring finding.Diag.message "under-determined")

(* Sweep spec diagnosis *)

let test_spec_diagnose () =
  Alcotest.(check (list string)) "empty spec" [ "AMS050" ]
    (codes (Spec.diagnose Spec.default));
  let axis param range = { Spec.param; range } in
  let s =
    {
      Spec.default with
      Spec.axes =
        [
          axis "r1.r" (Spec.Grid { lo = 1.0; hi = 2.0; n = 3 });
          axis "r1.r" (Spec.Values [ 1.0 ]);
          axis "c1.c" (Spec.Grid { lo = 5.0; hi = 1.0; n = 2 });
        ];
      corners = [ { Spec.corner_name = "empty"; binds = [] } ];
    }
  in
  let fs = Spec.diagnose s in
  Alcotest.(check (list string)) "all defects" [ "AMS051"; "AMS052" ]
    (codes fs);
  Alcotest.(check bool) "validate mirrors diagnose" true
    (match Spec.validate s with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "good spec passes" true
    (Spec.diagnose
       { Spec.default with Spec.axes = [ axis "r1.r" (Spec.Values [ 1.0 ]) ] }
     = [])

(* Property: a random circuit that lints clean at error level abstracts
   without raising — the gates and the deep flow agree on what is
   malformed. *)

let circuit_of_plan plan =
  let c = Circuit.create () in
  let node = function 0 -> "gnd" | i -> Printf.sprintf "n%d" i in
  List.iteri
    (fun i (kind, a, b) ->
      let a = node a and b = node (if a = b then (b + 1) mod 4 else b) in
      if a <> b then
        let name = Printf.sprintf "d%d" i in
        match kind mod 3 with
        | 0 -> Circuit.add_resistor c ~name ~pos:a ~neg:b 1.0e3
        | 1 -> Circuit.add_capacitor c ~name ~pos:a ~neg:b 1.0e-9
        | _ -> Circuit.add_vsource c ~name ~pos:a ~neg:b (Component.Dc 1.0))
    plan;
  c

let lint_clean_abstracts =
  QCheck.Test.make ~name:"lint-clean circuits abstract without raising"
    ~count:200
    QCheck.(
      small_list (triple (int_range 0 2) (int_range 0 3) (int_range 0 3)))
    (fun plan ->
      let circuit = circuit_of_plan plan in
      match Circuit.devices circuit with
      | [] -> true
      | d0 :: _ -> (
          let outputs = [ Expr.potential d0.Component.pos d0.Component.neg ] in
          (* Every failure mode must surface as a located Diag
             rejection, never as a raw solver exception. *)
          try
            Flow.(ignore (abstract_circuit circuit ~outputs ~dt:50e-9));
            true
          with
          | Diag.Rejected _ -> true
          | e ->
              QCheck.Test.fail_reportf
                "abstract raised %s instead of a Diag gate"
                (Printexc.to_string e)))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "golden",
        [
          Alcotest.test_case "front-end codes" `Quick test_frontend_codes;
          Alcotest.test_case "ast codes" `Quick test_ast_codes;
          Alcotest.test_case "clean models" `Quick test_clean_models_lint_clean;
          Alcotest.test_case "signal-flow codes" `Quick test_signal_flow_codes;
          Alcotest.test_case "signal-flow typed errors" `Quick
            test_signal_flow_typed_errors;
          Alcotest.test_case "stability warning" `Quick test_stability_warning;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "fixture reports" `Quick test_golden_baselines;
          Alcotest.test_case "input bound" `Quick test_input_bound_widens_ranges;
          Alcotest.test_case "abstract reports lint's finding" `Quick
            test_abstract_lint_parity;
          Alcotest.test_case "user errors are findings" `Quick
            test_user_errors_are_findings;
        ]
      );
      ( "acceptance",
        [
          Alcotest.test_case "three codes with spans" `Quick
            test_acceptance_scenario;
          Alcotest.test_case "werror and suppression" `Quick
            test_werror_and_suppression;
        ] );
      ( "gates",
        [
          Alcotest.test_case "topology gate" `Quick test_flow_gate_topology;
          Alcotest.test_case "solvability gate" `Quick
            test_flow_gate_solvability;
        ] );
      ( "sweep-spec",
        [ Alcotest.test_case "diagnose" `Quick test_spec_diagnose ] );
      ("property", qt [ lint_clean_abstracts ]);
    ]
