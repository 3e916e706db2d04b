(* Tests for the VHDL-AMS front-end: the other syntax of Section II-A,
   elaborated onto the same flat model as Verilog-AMS. *)

module Vparser = Amsvp_vhdlams.Vparser
module Velaborate = Amsvp_vhdlams.Velaborate
module Ast = Amsvp_vams.Ast
module Parser = Amsvp_vams.Parser
module Diag = Amsvp_diag.Diag
module Lint = Amsvp_analysis.Lint
module Vsources = Amsvp_vhdlams.Vsources
module E = Amsvp_vams.Elaborate
module Sources = Amsvp_vams.Sources
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram
module Stimulus = Amsvp_util.Stimulus
module Metrics = Amsvp_util.Metrics
module Trace = Amsvp_util.Trace

(* Parser: VHDL-AMS lowers onto the Verilog-AMS AST *)

let desc (e : Ast.expr) = e.Ast.edesc

let test_case_insensitive () =
  match Vparser.parse_expr_string "A + B" with
  | { Ast.edesc = Ast.Binop (Ast.Add, a, b); _ } ->
      Alcotest.(check bool) "identifiers lowercased" true
        (desc a = Ast.Ident "a" && desc b = Ast.Ident "b")
  | _ -> Alcotest.fail "identifiers should be lowercased"

(* The capacitor's [i == c * v'dot] is a flow contribution to its
   branch, named after the through quantity, of c * ddt(V(branch)). *)
let test_dot_attribute () =
  let design = Vparser.parse Vsources.primitives in
  let cap = Option.get (Ast.find_module design "capacitor") in
  let contributions =
    List.concat_map
      (fun (it : Ast.item) ->
        match it.Ast.idesc with
        | Ast.Analog [ { Ast.sdesc = Ast.Contribution (t, rhs); _ } ] ->
            [ (desc t, rhs) ]
        | _ -> [])
      cap.Ast.items
  in
  match contributions with
  | [ (Ast.Access ("I", [ "i" ]), { Ast.edesc = Ast.Binop (Ast.Mul, c, d); _ }) ]
    -> (
      Alcotest.(check bool) "generic c" true (desc c = Ast.Ident "c");
      match desc d with
      | Ast.Call ("ddt", [ v ]) ->
          Alcotest.(check bool) "v'dot is ddt(V(i))" true
            (desc v = Ast.Access ("V", [ "i" ]))
      | _ -> Alcotest.fail "'dot attribute")
  | _ -> Alcotest.fail "one contribution I(i) <+ c * ..."

let test_underscored_number () =
  match desc (Vparser.parse_expr_string "1_000.5") with
  | Ast.Number f -> Alcotest.(check (float 0.0)) "underscores" 1000.5 f
  | _ -> Alcotest.fail "number"

let test_parse_entity_structure () =
  let design = Vparser.parse Vsources.primitives in
  match Ast.find_module design "resistor" with
  | None -> Alcotest.fail "resistor entity"
  | Some m ->
      let count f =
        List.length
          (List.filter (fun (it : Ast.item) -> f it.Ast.idesc) m.Ast.items)
      in
      Alcotest.(check (list string)) "ports" [ "p"; "n" ] m.Ast.ports;
      Alcotest.(check int) "one generic" 1
        (count (function Ast.Parameter _ -> true | _ -> false));
      Alcotest.(check int) "architecture present: one quantity branch" 1
        (count (function Ast.Branch_decl (("p", "n"), [ "i" ]) -> true | _ -> false));
      Alcotest.(check int) "architecture present: one statement" 1
        (count (function Ast.Analog _ -> true | _ -> false))

let test_parse_error_line () =
  try
    ignore (Vparser.parse "entity x is\n  port (oops);\nend entity;");
    Alcotest.fail "expected error"
  with Vparser.Parse_error (_, line, _) ->
    Alcotest.(check bool) "line recorded" true (line >= 2)

(* Elaboration *)

let test_rc3_structure () =
  let design = Vparser.parse (Vsources.rc_ladder 3) in
  let flat = Velaborate.flatten design ~top:"rc3" ~inputs:[ "tin" ] in
  Alcotest.(check int) "six contributions" 6 (List.length flat.E.contributions);
  Alcotest.(check bool) "conservative" true (E.classify flat = `Conservative);
  let circuit = E.to_circuit flat in
  Alcotest.(check int) "devices incl. driver" 7 (Circuit.device_count circuit)

let test_generic_default_and_override () =
  let src =
    Vsources.primitives
    ^ {|
entity top is
  port (terminal a : electrical);
end entity;
architecture s of top is
begin
  rdef : entity work.resistor port map (p => a, n => ground);
  rovr : entity work.resistor generic map (r => 7.5) port map (p => a, n => ground);
end architecture;
|}
  in
  let flat =
    Velaborate.flatten (Vparser.parse src) ~top:"top" ~inputs:[ "a" ]
  in
  let circuit = E.to_circuit flat in
  let resistances =
    List.filter_map
      (fun (d : Component.t) ->
        match d.Component.kind with
        | Component.Resistor r -> Some r
        | _ -> None)
      (Circuit.devices circuit)
    |> List.sort compare
  in
  Alcotest.(check (list (float 0.0))) "default and override" [ 7.5; 1000.0 ]
    resistances

let test_vhdl_matches_verilog_rc1 () =
  (* The same system written in both languages must abstract to
     numerically identical models (§II-A). *)
  let dt = 50e-9 and t_stop = 1e-3 in
  let run_program (rep : Flow.report) input_name =
    let runner = Sfprogram.Runner.create rep.Flow.program in
    ignore input_name;
    Sfprogram.Runner.run runner
      ~stimuli:[| Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0 |]
      ~t_stop ()
  in
  let vhdl =
    Velaborate.parse_and_abstract (Vsources.rc_ladder 1) ~top:"rc1"
      ~inputs:[ "tin" ]
      ~outputs:[ Expr.potential "tout" "gnd" ]
      ~dt
  in
  let verilog =
    E.parse_and_abstract (Sources.rc_ladder 1) ~top:"rc1"
      ~outputs:[ Expr.potential "out" "gnd" ]
      ~dt
  in
  let a = run_program vhdl "tin" and b = run_program verilog "in" in
  let err = Metrics.nrmse_traces ~reference:a b ~t0:0.0 ~dt:1e-6 ~n:998 in
  Alcotest.(check bool) (Printf.sprintf "NRMSE=%g" err) true (err < 1e-12)

let test_vhdl_opamp_gain () =
  let rep =
    Velaborate.parse_and_abstract Vsources.opamp ~top:"oa" ~inputs:[ "tin" ]
      ~outputs:[ Expr.potential "tout" "gnd" ]
      ~dt:50e-9
  in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let tr =
    Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant 1.0 |]
      ~t_stop:2e-3 ()
  in
  Alcotest.(check (float 2e-2)) "inverting gain" (-4.0) (Trace.last_value tr)

let test_vhdl_signal_flow () =
  let design = Vparser.parse Vsources.signal_flow_filter in
  let flat = Velaborate.flatten design ~top:"sf_lowpass" ~inputs:[ "tin" ] in
  Alcotest.(check bool) "signal flow" true (E.classify flat = `Signal_flow);
  let rep =
    Velaborate.parse_and_abstract Vsources.signal_flow_filter ~top:"sf_lowpass"
      ~inputs:[ "tin" ]
      ~outputs:[ Expr.potential "tout" "gnd" ]
      ~dt:1e-6
  in
  let runner = Sfprogram.Runner.create rep.Flow.program in
  let tr =
    Sfprogram.Runner.run runner ~stimuli:[| Stimulus.constant 1.0 |]
      ~t_stop:1e-3 ()
  in
  let expected = 1.0 -. exp (-.1e-3 /. 125e-6) in
  Alcotest.(check (float 1e-2)) "step response" expected (Trace.last_value tr)

let test_if_use_pwl () =
  let src =
    {|
entity clamp is
  port (terminal a : electrical);
end entity;
architecture behav of clamp is
  quantity v across i through a to ground;
begin
  if v >= 0.0 use
    i == 0.01 * v;
  else
    i == 1.0e-9 * v;
  end use;
end architecture;
|}
  in
  let flat = Velaborate.flatten (Vparser.parse src) ~top:"clamp" ~inputs:[ "a" ] in
  let circuit = E.to_circuit flat in
  (* if/else contributions merge into a single conditional equation
     which the recogniser maps onto the PWL device... the merged form
     is cond ? g_on*v : 0 + (not cond ? g_off*v : 0); device
     recognition accepts the canonical ternary, so this netlist
     exercises the general nonlinear path instead: the flat model must
     at least classify and keep both regions. *)
  ignore circuit;
  Alcotest.(check int) "one merged contribution + driver source" 1
    (List.length flat.E.contributions)

let test_unknown_entity () =
  Alcotest.(check bool) "unknown entity" true
    (try
       ignore
         (Velaborate.flatten
            (Vparser.parse
               "entity t is port (terminal a : electrical); end entity;\n\
                architecture s of t is begin x : entity work.widget port map \
                (p => a); end architecture;")
            ~top:"t" ~inputs:[ "a" ]);
       false
     with Velaborate.Elab_error _ -> true)

let test_unknown_input_port () =
  Alcotest.(check bool) "bad input port" true
    (try
       ignore
         (Velaborate.flatten
            (Vparser.parse
               "entity t is port (terminal a : electrical); end entity;\n\
                architecture s of t is begin end architecture;")
            ~top:"t" ~inputs:[ "zz" ]);
       false
     with Velaborate.Elab_error _ -> true)

(* Default output: the one port not listed in [~inputs]. *)

let example_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "../examples"

let test_example_default_output () =
  let file = Filename.concat example_dir "rc_lowpass.vhd" in
  let src = In_channel.with_open_bin file In_channel.input_all in
  let flat =
    Velaborate.flatten (Vparser.parse ~file src) ~top:"rc_lowpass"
      ~inputs:[ "tin" ]
  in
  let output = E.output_port flat in
  Alcotest.(check string) "the port not driven" "V(tout,gnd)"
    (Expr.var_name output);
  let p = (E.abstract flat ~outputs:[ output ] ~dt:50e-9).Flow.program in
  Alcotest.(check (list string)) "abstracted output" [ "V(tout,gnd)" ]
    (List.map Expr.var_name p.Sfprogram.outputs)

let test_two_outputs_rejected () =
  let src =
    Vsources.primitives
    ^ {|
entity split is
  port (terminal tin, a, b : electrical);
end entity;
architecture struct of split is
begin
  r1 : entity work.resistor port map (p => tin, n => a);
  r2 : entity work.resistor port map (p => a, n => b);
  r3 : entity work.resistor port map (p => b, n => ground);
end architecture;
|}
  in
  let flat =
    Velaborate.flatten (Vparser.parse ~file:"split.vhd" src) ~top:"split"
      ~inputs:[ "tin" ]
  in
  match E.front_end (fun () -> E.output_port flat) with
  | Ok v -> Alcotest.failf "chose %s out of two ports" (Expr.var_name v)
  | Error f ->
      Alcotest.(check string) "code" "AMS003" f.Diag.code;
      Alcotest.(check bool) "located in split.vhd" true
        (match f.Diag.span with
        | Some sp -> sp.Diag.file = "split.vhd" && sp.Diag.line > 1
        | None -> false);
      Alcotest.(check bool) ("names both ports: " ^ f.Diag.message) true
        (String.starts_with ~prefix:"split has output ports [a, b]"
           f.Diag.message)

(* Parameters and overrides *)

let resistances flat =
  List.filter_map
    (fun (d : Component.t) ->
      match d.Component.kind with Component.Resistor r -> Some r | _ -> None)
    (Circuit.devices (E.to_circuit flat))
  |> List.sort compare

let elab_error src ~top ~inputs =
  match Velaborate.flatten (Vparser.parse ~file:"k.vhd" src) ~top ~inputs with
  | _ -> None
  | exception Velaborate.Elab_error (msg, sp) -> Some (msg, sp <> None)

let test_constant_scope () =
  (* A constant reads the generics (and constants) declared before it. *)
  let src =
    {|
entity k is
  generic (r : real := 1.5);
  port (terminal a : electrical);
end entity;
architecture behav of k is
  constant r2 : real := 2.0 * r;
  quantity v across i through a to ground;
begin
  v == r2 * i;
end architecture;
|}
  in
  Alcotest.(check (list (float 0.0))) "r2 = 2 r" [ 3.0 ]
    (resistances (Velaborate.flatten (Vparser.parse src) ~top:"k" ~inputs:[ "a" ]))

let test_misspelled_generic () =
  let src =
    Vsources.primitives
    ^ {|
entity top is
  port (terminal a : electrical);
end entity;
architecture s of top is
begin
  r1 : entity work.resistor generic map (rr => 5.0) port map (p => a, n => ground);
end architecture;
|}
  in
  Alcotest.(check (option (pair string bool))) "rejected with a span"
    (Some ("module resistor has no parameter rr", true))
    (elab_error src ~top:"top" ~inputs:[ "a" ])

let test_constant_not_overridable () =
  let src =
    {|
entity k is
  port (terminal p, n : electrical);
end entity;
architecture behav of k is
  constant r : real := 1.0;
  quantity v across i through p to n;
begin
  v == r * i;
end architecture;
entity top is
  port (terminal a : electrical);
end entity;
architecture s of top is
begin
  k1 : entity work.k generic map (r => 5.0) port map (p => a, n => ground);
end architecture;
|}
  in
  Alcotest.(check (option (pair string bool))) "constant override rejected"
    (Some ("module k has no parameter r", true))
    (elab_error src ~top:"top" ~inputs:[ "a" ])

(* Differential: random RC/RLC ladders written in both languages *)

(* Per stage: a series R, an optional series L and a shunt C, values
   printed [%.6e] so both sources carry the very same decimals. *)
type stage = { r : string; l : string option; c : string }

let gen_ladder =
  let open QCheck.Gen in
  let value lo hi = map (Printf.sprintf "%.6e") (float_range lo hi) in
  list_size (int_range 1 8)
    (map3
       (fun r l c -> { r; l; c })
       (value 1e2 1e4) (opt (value 1e-6 1e-3)) (value 1e-9 1e-7))

(* The devices of stage [i] as (kind, value, pos, neg), over the nodes
   tin = a0, a1 ... an = tout, with bi between R and L. *)
let ladder_devices stages =
  let n = List.length stages in
  let a i = if i = 0 then "tin" else if i = n then "tout" else Printf.sprintf "m%d" i in
  List.concat
    (List.mapi
       (fun k s ->
         let i = k + 1 in
         match s.l with
         | None -> [ ("r", s.r, a (i - 1), a i); ("c", s.c, a i, "") ]
         | Some l ->
             let b = Printf.sprintf "x%d" i in
             [ ("r", s.r, a (i - 1), b); ("l", l, b, a i); ("c", s.c, a i, "") ])
       stages)

let internal_nodes devices =
  List.concat_map (fun (_, _, p, n) -> [ p; n ]) devices
  |> List.filter (fun x -> x <> "tin" && x <> "tout" && x <> "")
  |> List.sort_uniq compare

let entity_of = function
  | "r" -> ("resistor", "r")
  | "l" -> ("inductor", "l")
  | _ -> ("capacitor", "c")

let ladder_vhdl stages =
  let devices = ladder_devices stages in
  let b = Buffer.create 2048 in
  Buffer.add_string b Vsources.primitives;
  Buffer.add_string b
    "\nentity ladder is\n  port (terminal tin, tout : electrical);\nend entity;\n\
     architecture struct of ladder is\n";
  (match internal_nodes devices with
  | [] -> ()
  | nodes ->
      Printf.bprintf b "  terminal %s : electrical;\n" (String.concat ", " nodes));
  Buffer.add_string b "begin\n";
  List.iteri
    (fun k (kind, v, p, n) ->
      let entity, generic = entity_of kind in
      Printf.bprintf b
        "  %s%d : entity work.%s generic map (%s => %s) port map (p => %s, n => %s);\n"
        kind k entity generic v p (if n = "" then "ground" else n))
    devices;
  Buffer.add_string b "end architecture;\n";
  Buffer.contents b

(* The Verilog-AMS primitives name their branch like the VHDL-AMS
   through quantity, so both front-ends yield the same flow ids. *)
let verilog_primitives =
  {|
module resistor(p, n);
  inout electrical p, n;
  parameter real r = 1.0e3;
  branch (p, n) i;
  analog V(i) <+ r * I(i);
endmodule
module capacitor(p, n);
  inout electrical p, n;
  parameter real c = 1.0e-9;
  branch (p, n) i;
  analog I(i) <+ c * ddt(V(i));
endmodule
module inductor(p, n);
  inout electrical p, n;
  parameter real l = 1.0e-6;
  branch (p, n) i;
  analog V(i) <+ l * ddt(I(i));
endmodule
|}

let ladder_verilog stages =
  let devices = ladder_devices stages in
  let b = Buffer.create 2048 in
  Buffer.add_string b verilog_primitives;
  Buffer.add_string b
    "module ladder(tin, tout);\n  input electrical tin;\n  output electrical tout;\n";
  (match internal_nodes devices with
  | [] -> ()
  | nodes -> Printf.bprintf b "  electrical %s;\n" (String.concat ", " nodes));
  List.iteri
    (fun k (kind, v, p, n) ->
      let m, param = entity_of kind in
      Printf.bprintf b "  %s #(.%s(%s)) %s%d (.p(%s), .n(%s));\n" m param v kind
        k p (if n = "" then "gnd" else n))
    devices;
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

let without_spans (f : E.flat) =
  let nowhere = Diag.span 0 0 in
  {
    f with
    E.top_span = nowhere;
    contributions =
      List.map
        (fun (c : E.contribution) -> { c with E.span = nowhere })
        f.E.contributions;
  }

let bits tr = Array.map Int64.bits_of_float (Trace.values tr)

let prop_ladders_agree =
  QCheck.Test.make ~name:"random ladders: VHDL-AMS == Verilog-AMS" ~count:40
    (QCheck.make
       ~print:(fun stages -> ladder_vhdl stages)
       gen_ladder)
    (fun stages ->
      let vhdl =
        Velaborate.flatten
          (Vparser.parse (ladder_vhdl stages))
          ~top:"ladder" ~inputs:[ "tin" ]
      in
      let verilog =
        E.flatten (Parser.parse (ladder_verilog stages)) ~top:"ladder"
      in
      if without_spans vhdl <> without_spans verilog then
        QCheck.Test.fail_reportf "flat models differ";
      let run flat =
        let rep =
          E.abstract flat ~outputs:[ Expr.potential "tout" "gnd" ] ~dt:50e-9
        in
        Sfprogram.Runner.run
          (Sfprogram.Runner.create rep.Flow.program)
          ~stimuli:[| Stimulus.square ~period:1e-5 ~low:0.0 ~high:1.0 |]
          ~t_stop:2e-5 ()
      in
      bits (run vhdl) = bits (run verilog))

(* Lint parity: the same defect reports the same codes in both
   languages, and every VHDL-AMS finding is located. *)

let twin ?(unused = false) ?(override = "r") ?(read = "r") () =
  let verilog =
    Printf.sprintf
      {|
module res(p, n);
  inout electrical p, n;
  parameter real r = 1.0e3;
  branch (p, n) i;
  analog V(i) <+ %s * I(i);
endmodule
module top(tin, tout);
  input electrical tin;
  inout electrical tout;
%s  res #(.%s(5.0e3)) r1 (.p(tin), .n(tout));
  res r2 (.p(tout), .n(gnd));
endmodule
|}
      read
      (if unused then "  parameter real g = 2.0;\n" else "")
      override
  and vhdl =
    Printf.sprintf
      {|
entity res is
  generic (r : real := 1.0e3);
  port (terminal p, n : electrical);
end entity;
architecture a of res is
  quantity v across i through p to n;
begin
  v == %s * i;
end architecture;
entity top is
%s  port (terminal tin, tout : electrical);
end entity;
architecture a of top is
begin
  r1 : entity work.res generic map (%s => 5.0e3) port map (p => tin, n => tout);
  r2 : entity work.res port map (p => tout, n => ground);
end architecture;
|}
      read
      (if unused then "  generic (g : real := 2.0);\n" else "")
      override
  in
  (verilog, vhdl)

let codes fs = List.sort_uniq compare (List.map (fun f -> f.Diag.code) fs)

let test_lint_parity () =
  List.iter
    (fun (label, expected, (verilog, vhdl)) ->
      let v = Lint.lint ~file:"t.vams" verilog in
      let h = Lint.lint ~lang:`Vhdl_ams ~inputs:[ "tin" ] ~file:"t.vhd" vhdl in
      Alcotest.(check (list string)) (label ^ ": Verilog-AMS") expected (codes v);
      Alcotest.(check (list string)) (label ^ ": VHDL-AMS") expected (codes h);
      List.iter
        (fun f ->
          if f.Diag.span = None then
            Alcotest.failf "%s: unlocated VHDL-AMS finding %s" label
              (Diag.to_text f))
        h)
    [
      ("clean", [], twin ());
      ("undefined name", [ "AMS003" ], twin ~read:"rx" ());
      ("unused parameter", [ "AMS011" ], twin ~unused:true ());
      ("misspelled override", [ "AMS003" ], twin ~override:"rr" ());
    ];
  (* The misspelled override is located at its name, in both
     languages. *)
  let located fs =
    List.filter_map
      (fun f ->
        match f.Diag.span with
        | Some sp when f.Diag.code = "AMS003" -> Some (sp.Diag.line, sp.Diag.col)
        | _ -> None)
      fs
  in
  let verilog, vhdl = twin ~override:"rr" () in
  Alcotest.(check (list (pair int int))) "Verilog-AMS AMS003 at .rr"
    [ (11, 10) ] (located (Lint.lint ~file:"t.vams" verilog));
  Alcotest.(check (list (pair int int))) "VHDL-AMS AMS003 at rr =>"
    [ (16, 37) ]
    (located (Lint.lint ~lang:`Vhdl_ams ~inputs:[ "tin" ] ~file:"t.vhd" vhdl))

let test_lint_located () =
  (* An undefined name is reported at its position, and an unused
     generic gets its AMS011. *)
  let src =
    "entity bad is\n\
    \  generic (g : real := 1.0);\n\
    \  port (terminal tin, tout : electrical);\n\
     end entity;\n\
     architecture behav of bad is\n\
    \  quantity v across i through tin to tout;\n\
     begin\n\
    \  v == 5.0e3 * irx;\n\
     end architecture;\n"
  in
  let fs = Lint.lint ~lang:`Vhdl_ams ~inputs:[ "tin" ] ~file:"bad.vhd" src in
  let located code =
    List.filter_map
      (fun f ->
        match f.Diag.span with
        | Some sp when f.Diag.code = code -> Some (sp.Diag.line, sp.Diag.col)
        | _ -> None)
      fs
  in
  Alcotest.(check (list (pair int int))) "AMS003 at irx" [ (8, 16) ] (located "AMS003");
  Alcotest.(check (list (pair int int))) "AMS011 at g" [ (2, 12) ] (located "AMS011")

(* Each language is advised in its own terms: V()/I() access is
   Verilog-AMS advice, a VHDL-AMS name is a quantity, generic or
   constant; and an unused quantity is reported by its own name, not as
   the branch it lowers to. *)
let test_lint_wording () =
  let messages code fs =
    List.filter_map
      (fun f -> if f.Diag.code = code then Some f.Diag.message else None)
      fs
  in
  let verilog, vhdl = twin ~read:"rx" () in
  Alcotest.(check (list string)) "Verilog-AMS AMS003"
    [ "unresolved identifier rx (nets need V()/I() access)" ]
    (messages "AMS003" (Lint.lint ~file:"t.vams" verilog));
  Alcotest.(check (list string)) "VHDL-AMS AMS003"
    [ "unresolved identifier rx (not a quantity, generic or constant in scope)" ]
    (messages "AMS003"
       (Lint.lint ~lang:`Vhdl_ams ~inputs:[ "tin" ] ~file:"t.vhd" vhdl));
  let src =
    "entity q is\n\
    \  port (terminal tin, tout : electrical);\n\
     end entity;\n\
     architecture a of q is\n\
    \  quantity vr across ir through tin to tout;\n\
    \  quantity vl across il through tout to ground;\n\
    \  quantity vx across tout to ground;\n\
     begin\n\
    \  vr == 1.0e3 * ir;\n\
    \  vl == 2.0e3 * il;\n\
     end architecture;\n"
  in
  let fs = Lint.lint ~lang:`Vhdl_ams ~inputs:[ "tin" ] ~file:"q.vhd" src in
  Alcotest.(check (list string)) "unused quantity"
    [ "quantity vx is declared but never used" ] (messages "AMS011" fs);
  Alcotest.(check (list (option string))) "subject" [ Some "vx" ]
    (List.filter_map
       (fun f -> if f.Diag.code = "AMS011" then Some f.Diag.subject else None)
       fs)

let () =
  Alcotest.run "vhdlams"
    [
      ( "parser",
        [
          Alcotest.test_case "case insensitive" `Quick test_case_insensitive;
          Alcotest.test_case "'dot attribute" `Quick test_dot_attribute;
          Alcotest.test_case "underscored numbers" `Quick test_underscored_number;
          Alcotest.test_case "entity structure" `Quick test_parse_entity_structure;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "rc3 structure" `Quick test_rc3_structure;
          Alcotest.test_case "generic default/override" `Quick
            test_generic_default_and_override;
          Alcotest.test_case "if/use regions" `Quick test_if_use_pwl;
          Alcotest.test_case "unknown entity" `Quick test_unknown_entity;
          Alcotest.test_case "unknown input port" `Quick test_unknown_input_port;
          Alcotest.test_case "example's default output" `Quick
            test_example_default_output;
          Alcotest.test_case "two output ports rejected" `Quick
            test_two_outputs_rejected;
          Alcotest.test_case "constant scope" `Quick test_constant_scope;
          Alcotest.test_case "misspelled generic" `Quick test_misspelled_generic;
          Alcotest.test_case "constant not overridable" `Quick
            test_constant_not_overridable;
        ] );
      ( "lint",
        [
          Alcotest.test_case "parity with Verilog-AMS" `Quick test_lint_parity;
          Alcotest.test_case "located findings" `Quick test_lint_located;
          Alcotest.test_case "wording per language" `Quick test_lint_wording;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "VHDL rc1 == Verilog rc1" `Quick
            test_vhdl_matches_verilog_rc1;
          Alcotest.test_case "OA gain" `Quick test_vhdl_opamp_gain;
          Alcotest.test_case "signal-flow filter" `Quick test_vhdl_signal_flow;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |])
            prop_ladders_agree;
        ] );
    ]
