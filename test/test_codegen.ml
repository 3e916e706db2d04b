(* Tests for the three code-generation targets: the shape of the
   emitted units, and the units compiled with g++ and run, step for
   step bit-identical to the bytecode runner. *)

module Codegen = Amsvp_codegen.Codegen
module Circuits = Amsvp_netlist.Circuits
module Flow = Amsvp_core.Flow
module Sfprogram = Amsvp_sf.Sfprogram

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let check_contains what text needle =
  if not (contains text needle) then
    Alcotest.failf "%s should contain %S, got:\n%s" what needle text

let rc1_program () =
  let tc = Circuits.rc_ladder 1 in
  (Flow.abstract_testcase tc ~dt:50e-9).Flow.program

let test_target_names () =
  Alcotest.(check string) "cpp" "C++" (Codegen.target_name Codegen.Cpp);
  Alcotest.(check string) "de" "SC-DE" (Codegen.target_name Codegen.Systemc_de);
  Alcotest.(check string) "tdf" "SC-AMS/TDF"
    (Codegen.target_name Codegen.Systemc_ams_tdf)

let test_cpp_shape () =
  let p = rc1_program () in
  let src = Codegen.emit Codegen.Cpp p in
  check_contains "C++" src "class RC1 {";
  check_contains "C++" src "void step(double in)";
  check_contains "C++" src "double V_out_gnd = 0.0;";
  check_contains "C++" src "double V_out_gnd_m1 = 0.0;";
  (* State rotation after the update statements. *)
  check_contains "C++" src "V_out_gnd_m1 = V_out_gnd;";
  check_contains "C++" src "V_out_gnd_value()"

let test_systemc_de_shape () =
  let p = rc1_program () in
  let src = Codegen.emit Codegen.Systemc_de p in
  check_contains "SC-DE" src "SC_MODULE(RC1)";
  check_contains "SC-DE" src "sc_core::sc_in<double> in;";
  check_contains "SC-DE" src "sc_core::sc_out<double> V_out_gnd_out;";
  check_contains "SC-DE" src "SC_METHOD(step);";
  check_contains "SC-DE" src "next_trigger(sc_core::sc_time(5e-08, sc_core::SC_SEC));";
  check_contains "SC-DE" src "V_out_gnd_out.write(V_out_gnd);"

let test_systemc_tdf_shape () =
  let p = rc1_program () in
  let src = Codegen.emit Codegen.Systemc_ams_tdf p in
  check_contains "TDF" src "SCA_TDF_MODULE(RC1)";
  check_contains "TDF" src "sca_tdf::sca_in<double> in;";
  check_contains "TDF" src "set_timestep(5e-08, sc_core::SC_SEC);";
  check_contains "TDF" src "void processing()";
  check_contains "TDF" src "SCA_CTOR(RC1)"

let test_step_body_is_executable_shape () =
  (* Fig. 7.b: assignments followed by the history rotation, every line
     terminated by a semicolon. *)
  let p = rc1_program () in
  let body = Codegen.emit_step_body p in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if String.trim line <> "" then
           Alcotest.(check bool)
             (Printf.sprintf "line %S is a statement" line)
             true
             (String.length line > 1 && line.[String.length line - 1] = ';'))

let test_rotation_depth_order () =
  (* A two-level history must rotate deepest-first. *)
  let y = Expr.potential "y" "gnd" in
  let p =
    Sfprogram.make ~name:"deep" ~inputs:[ "u" ] ~outputs:[ y ]
      ~assignments:
        [
          {
            Sfprogram.target = y;
            expr =
              Expr.(
                var (Expr.delayed y 2)
                + var (Expr.signal "u"));
          };
        ]
      ~dt:1.0
  in
  let body = Codegen.emit_step_body p in
  let idx s =
    let rec go i =
      if i + String.length s > String.length body then -1
      else if String.sub body i (String.length s) = s then i
      else go (i + 1)
    in
    go 0
  in
  let m2 = idx "V_y_gnd_m2 = V_y_gnd_m1;" in
  let m1 = idx "V_y_gnd_m1 = V_y_gnd;" in
  Alcotest.(check bool) "both rotations present" true (m1 >= 0 && m2 >= 0);
  Alcotest.(check bool) "deepest first" true (m2 < m1)

let test_pwl_model_emits_ternary () =
  (* Region-switching generated code renders as C ternaries over the
     previous step's values. *)
  let ckt = Amsvp_netlist.Circuit.create () in
  Amsvp_netlist.Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Amsvp_netlist.Component.Input "in");
  Amsvp_netlist.Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"a" 1.0e3;
  Amsvp_netlist.Circuit.add_pwl_conductance ckt ~name:"d1" ~pos:"a" ~neg:"gnd"
    ~g_on:0.01 ~g_off:1e-9 ~threshold:0.0;
  let rep =
    Flow.abstract_circuit ckt ~outputs:[ Expr.potential "a" "gnd" ] ~dt:1e-6
  in
  let src = Codegen.emit Codegen.Cpp rep.Flow.program in
  check_contains "PWL C++" src "?";
  check_contains "PWL C++ lagged condition" src "V_a_gnd_m1 >= 0"

let test_emitted_for_all_paper_circuits () =
  List.iter
    (fun (tc : Circuits.testcase) ->
      let p = (Flow.abstract_testcase tc ~dt:50e-9).Flow.program in
      List.iter
        (fun target ->
          let src = Codegen.emit target p in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s nonempty" tc.Circuits.label
               (Codegen.target_name target))
            true
            (String.length src > 100))
        [ Codegen.Cpp; Codegen.Systemc_de; Codegen.Systemc_ams_tdf ])
    (Circuits.all_paper_cases ())

(* ---- the generated C++, compiled and run ---- *)

let gxx = "/usr/bin/g++"
let steps = 1200

(* Every instruction kind and the awkward literals: functions, every
   comparison and connective, -0.0, infinities, NaN, a subnormal, an
   input history two steps deep. No operation sees two NaN operands:
   which of the two a C++ compiler returns is its own choice. *)
let ops_program () =
  let iu = Expr.signal "u" and iv = Expr.signal "v" in
  let ta = Expr.signal "a" and tb = Expr.signal "b" in
  let tc = Expr.signal "c" and td = Expr.signal "d" in
  let x = Expr.var and k = Expr.const in
  let app f e = Expr.App (f, e) in
  let cmp op l r = Expr.Cmp (op, l, r) in
  Sfprogram.make ~name:"ops" ~inputs:[ "u"; "v" ] ~outputs:[ ta; tb; tc; td ]
    ~assignments:
      [
        {
          Sfprogram.target = ta;
          expr =
            Expr.(
              (app Sin (x iu) * k 0.5)
              + (app Cos (x iv) * k (-0.25))
              + app Exp (x iu * k 0.1)
              - app Tanh (x (Expr.delayed ta 1)));
        };
        {
          target = tb;
          expr =
            Expr.(
              app Ln (app Abs (x iv) + k 1e-300)
              + app Sqrt (app Abs (x iu))
              - (x (Expr.delayed iu 2) / k 3.0));
        };
        {
          target = tc;
          expr =
            Expr.Cond
              ( Expr.Or
                  ( Expr.And (cmp Lt (x iu) (x iv), Expr.Not (cmp Ge (x ta) (k 0.0))),
                    cmp Gt (x tb) (k 4.9e-310) ),
                Expr.Mul (x ta, k (-0.0)),
                Expr.Cond
                  ( cmp Le (x iu) (k (-0.5)),
                    Expr.(x tb / k 0.0),
                    Expr.(x iu * k Float.infinity + k Float.neg_infinity) ) );
        };
        {
          target = td;
          expr = Expr.((x iu * k Float.nan) + x (Expr.delayed iu 1));
        };
      ]
    ~dt:1e-6

let example_programs () =
  Sys.readdir "../examples" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vams")
  |> List.sort compare
  |> List.map (fun f ->
         let top = Filename.chop_suffix f ".vams" in
         let src =
           In_channel.with_open_text (Filename.concat "../examples" f)
             In_channel.input_all
         in
         ( top,
           (Amsvp_vams.Elaborate.parse_and_abstract src ~top
              ~outputs:[ Expr.potential "out" "gnd" ] ~dt:50e-9)
             .Flow.program ))

let compiled_cases () =
  List.map
    (fun (tc : Circuits.testcase) ->
      (tc.Circuits.label, (Flow.abstract_testcase tc ~dt:50e-9).Flow.program))
    (Circuits.all_paper_cases () @ [ Circuits.rectifier () ])
  @ example_programs ()
  @ [ ("ops", ops_program ()) ]

(* Input [k] at step [i]: a deterministic wobble, different per input. *)
let sample k i =
  (1.5 *. sin (0.013 *. float_of_int (i * (k + 1))))
  +. (0.25 *. float_of_int k)
  -. if i mod 97 = 0 then 0.75 else 0.0

let hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let input_name s = Expr.var_c_name (Expr.signal s)

(* The driver's output for one model: a header, then per step the bits
   of every output; the SystemC targets add the timestep they set. *)
let expected_output label (p : Sfprogram.t) =
  let r = Sfprogram.Runner.create p in
  let n_in = List.length p.Sfprogram.inputs in
  let n_out = List.length p.Sfprogram.outputs in
  let b = Buffer.create 4096 in
  for i = 1 to steps do
    Sfprogram.Runner.step r ~inputs:(Array.init n_in (fun k -> sample k i));
    Buffer.add_string b
      (String.concat " "
         (List.init n_out (fun j -> hex (Sfprogram.Runner.output r j))));
    Buffer.add_char b '\n'
  done;
  let rows = Buffer.contents b in
  String.concat ""
    [
      Printf.sprintf "== %s cpp\n" label;
      rows;
      Printf.sprintf "== %s sc-de\n" label;
      rows;
      Printf.sprintf "dt %s\n" (hex p.Sfprogram.dt);
      Printf.sprintf "== %s sc-tdf\n" label;
      rows;
      Printf.sprintf "dt %s\n" (hex p.Sfprogram.dt);
    ]

(* The driver function for model [i]: reads its input samples from
   stdin (bits in hex), steps each target's class, prints the output
   bits. *)
let driver_function i label (p : Sfprogram.t) =
  let cls = Codegen.sanitize_ident p.Sfprogram.name in
  let n_in = List.length p.Sfprogram.inputs in
  let outs = List.map Expr.var_c_name p.Sfprogram.outputs in
  let print_row read =
    Printf.sprintf "      print_row({%s});\n"
      (String.concat ", " (List.map read outs))
  in
  let set_ports =
    String.concat ""
      (List.mapi
         (fun k s -> Printf.sprintf "      m.%s.set(u[%d]);\n" (input_name s) k)
         p.Sfprogram.inputs)
  in
  String.concat ""
    [
      Printf.sprintf "static void run_%d(const std::vector<double> &in) {\n" i;
      Printf.sprintf "  const int n_in = %d;\n" n_in;
      Printf.sprintf "  std::printf(\"== %s cpp\\n\");\n" label;
      Printf.sprintf "  {\n    m%d_cpp::%s m;\n" i cls;
      "    for (int i = 0; i < STEPS; i++) {\n";
      "      const double *u = &in[i * n_in]; (void)u;\n";
      Printf.sprintf "      m.step(%s);\n"
        (String.concat ", " (List.init n_in (Printf.sprintf "u[%d]")));
      print_row (fun o -> Printf.sprintf "m.%s_value()" (Codegen.sanitize_ident o));
      "    }\n  }\n";
      Printf.sprintf "  std::printf(\"== %s sc-de\\n\");\n" label;
      Printf.sprintf "  {\n    m%d_de::%s m(\"m\");\n" i cls;
      "    for (int i = 0; i < STEPS; i++) {\n";
      "      const double *u = &in[i * n_in]; (void)u;\n";
      set_ports;
      "      m.run();\n";
      print_row (fun o -> Printf.sprintf "m.%s_out.read()" o);
      "    }\n";
      "    std::printf(\"dt %016llx\\n\", bits(m.trigger().value()));\n";
      "  }\n";
      Printf.sprintf "  std::printf(\"== %s sc-tdf\\n\");\n" label;
      Printf.sprintf "  {\n    m%d_tdf::%s m(\"m\");\n" i cls;
      "    m.set_attributes();\n";
      "    for (int i = 0; i < STEPS; i++) {\n";
      "      const double *u = &in[i * n_in]; (void)u;\n";
      set_ports;
      "      m.processing();\n";
      print_row (fun o -> Printf.sprintf "m.%s_out.read()" o);
      "    }\n";
      "    std::printf(\"dt %016llx\\n\", bits(m.timestep().value()));\n";
      "  }\n}\n\n";
    ]

let run_command cmd =
  match Sys.command cmd with
  | 0 -> ()
  | n -> Alcotest.failf "%s: exit %d" cmd n

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* The first line where [got] and [want] differ, with the section it
   falls in. *)
let first_difference ~got ~want =
  let g = String.split_on_char '\n' got and w = String.split_on_char '\n' want in
  let rec go section n g w =
    match (g, w) with
    | x :: g', y :: w' when x = y ->
        let section =
          if String.length x > 3 && String.sub x 0 3 = "== " then x else section
        in
        go section (n + 1) g' w'
    | x :: _, y :: _ ->
        Printf.sprintf "%s, line %d: got %S, want %S" section n x y
    | [], y :: _ -> Printf.sprintf "%s, line %d: output ends, want %S" section n y
    | x :: _, [] -> Printf.sprintf "%s, line %d: extra %S" section n x
    | [], [] -> "no difference"
  in
  go "(start)" 1 g w

let test_compiled_bit_identical () =
  if Sys.file_exists gxx then begin
    let cases = compiled_cases () in
    let dir = Filename.temp_dir "amsvp_codegen" "" in
    let standin = Filename.concat (Sys.getcwd ()) "fixtures/systemc_standin.h" in
    List.iter
      (fun h ->
        write_file (Filename.concat dir h)
          (Printf.sprintf "#include \"%s\"\n" standin))
      [ "systemc"; "systemc-ams" ];
    let units = Buffer.create 4096 and runs = Buffer.create 4096 in
    let inputs = Buffer.create 65536 and want = Buffer.create 65536 in
    List.iteri
      (fun i (label, p) ->
        List.iter
          (fun (suffix, target) ->
            let file = Printf.sprintf "m%d_%s.hpp" i suffix in
            write_file (Filename.concat dir file) (Codegen.emit target p);
            Printf.bprintf units "namespace m%d_%s {\n#include \"%s\"\n}\n" i
              suffix file)
          [
            ("cpp", Codegen.Cpp);
            ("de", Codegen.Systemc_de);
            ("tdf", Codegen.Systemc_ams_tdf);
          ];
        Buffer.add_string runs (driver_function i label p);
        let n_in = List.length p.Sfprogram.inputs in
        for s = 1 to steps do
          for k = 0 to n_in - 1 do
            Buffer.add_string inputs (hex (sample k s) ^ "\n")
          done
        done;
        Buffer.add_string want (expected_output label p))
      cases;
    let main =
      String.concat ""
        [
          "#include <cmath>\n#include <cstdint>\n#include <cstdio>\n";
          "#include <cstring>\n#include <vector>\n";
          "#include <systemc>\n#include <systemc-ams>\n\n";
          Buffer.contents units;
          Printf.sprintf "\nstatic const int STEPS = %d;\n\n" steps;
          "static unsigned long long bits(double d) {\n";
          "  unsigned long long b;\n  std::memcpy(&b, &d, sizeof b);\n";
          "  return b;\n}\n\n";
          "static void print_row(std::vector<double> row) {\n";
          "  for (std::size_t j = 0; j < row.size(); j++)\n";
          "    std::printf(j ? \" %016llx\" : \"%016llx\", bits(row[j]));\n";
          "  std::printf(\"\\n\");\n}\n\n";
          "static std::vector<double> read_inputs(int n) {\n";
          "  std::vector<double> in(n);\n";
          "  for (int i = 0; i < n; i++) {\n";
          "    unsigned long long b = 0;\n";
          "    if (std::scanf(\"%llx\", &b) != 1) std::abort();\n";
          "    std::memcpy(&in[i], &b, sizeof b);\n  }\n  return in;\n}\n\n";
          Buffer.contents runs;
          "int main() {\n";
          String.concat ""
            (List.mapi
               (fun i (_, p) ->
                 Printf.sprintf "  run_%d(read_inputs(STEPS * %d));\n" i
                   (List.length p.Sfprogram.inputs))
               cases);
          "  return 0;\n}\n";
        ]
    in
    let path f = Filename.quote (Filename.concat dir f) in
    write_file (Filename.concat dir "main.cpp") main;
    write_file (Filename.concat dir "inputs.txt") (Buffer.contents inputs);
    run_command
      (Printf.sprintf
         "%s -std=c++17 -O0 -ffp-contract=off -Wall -Werror -I %s -o %s %s"
         gxx (Filename.quote dir) (path "driver") (path "main.cpp"));
    run_command
      (Printf.sprintf "%s < %s > %s" (path "driver") (path "inputs.txt")
         (path "got.txt"));
    let got = read_file (Filename.concat dir "got.txt") in
    let want = Buffer.contents want in
    if got <> want then
      Alcotest.failf
        "compiled models differ from the bytecode runner: %s (files kept in %s)"
        (first_difference ~got ~want) dir;
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let () =
  if not (Sys.file_exists gxx) then
    print_endline
      ("codegen: " ^ gxx ^ " not found, skipping the compiled-model test");
  Alcotest.run "codegen"
    [
      ( "targets",
        [
          Alcotest.test_case "names" `Quick test_target_names;
          Alcotest.test_case "C++ shape" `Quick test_cpp_shape;
          Alcotest.test_case "SystemC-DE shape" `Quick test_systemc_de_shape;
          Alcotest.test_case "SystemC-AMS/TDF shape" `Quick test_systemc_tdf_shape;
        ] );
      ( "body",
        [
          Alcotest.test_case "statement shape" `Quick
            test_step_body_is_executable_shape;
          Alcotest.test_case "rotation order" `Quick test_rotation_depth_order;
          Alcotest.test_case "PWL ternary" `Quick test_pwl_model_emits_ternary;
          Alcotest.test_case "all circuits emit" `Quick
            test_emitted_for_all_paper_circuits;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "g++ run bit-identical to the bytecode" `Quick
            test_compiled_bit_identical;
        ] );
    ]
