(* Seeded inputs. The one [--seed] argument drives every generated
   value: the RC20 ladder sources of [simulate_file], the RC20 values
   of the [vp_table3] platform model, and the spec seeds of
   [sweep_reference] and [serve_submit]. The program under test only
   ever sees the generated inputs. *)

module Rng = Amsvp_util.Rng

let stages = 20

(* Per-stage (R, C) of ladder [variant]: within 10% of the paper's
   5 kOhm / 25 nF, printed with 7 significant digits so both front-ends
   read the same decimal text. *)
let ladder_values ~seed ~variant =
  let rng = Rng.derive seed ~stream:variant in
  Array.init stages (fun _ ->
      let r = Rng.uniform rng ~lo:4.5e3 ~hi:5.5e3 in
      let c = Rng.uniform rng ~lo:22.5e-9 ~hi:27.5e-9 in
      (Printf.sprintf "%.6e" r, Printf.sprintf "%.6e" c))

let top = "rc20"

(* Node names shared by both languages, so the two elaborations build
   the same network and the abstracted programs run bit-identically. *)
let node i =
  if i = 0 then "tin" else if i = stages then "tout" else Printf.sprintf "m%d" i

let internal_nodes () =
  String.concat ", " (List.init (stages - 1) (fun i -> node (i + 1)))

let verilog values =
  let b = Buffer.create 4096 in
  Buffer.add_string b Amsvp_vams.Sources.primitives;
  Printf.bprintf b
    "\nmodule %s(tin, tout);\n  input electrical tin;\n  output electrical tout;\n  electrical %s;\n"
    top (internal_nodes ());
  Array.iteri
    (fun k (r, c) ->
      let i = k + 1 in
      Printf.bprintf b "  resistor #(.r(%s)) r%d (.p(%s), .n(%s));\n" r i
        (node (i - 1)) (node i);
      Printf.bprintf b "  capacitor #(.c(%s)) c%d (.p(%s), .n(gnd));\n" c i
        (node i))
    values;
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

let vhdl values =
  let b = Buffer.create 4096 in
  Buffer.add_string b Amsvp_vhdlams.Vsources.primitives;
  Printf.bprintf b
    "\nentity %s is\n  port (terminal tin, tout : electrical);\nend entity;\n\n\
     architecture struct of %s is\n  terminal %s : electrical;\nbegin\n"
    top top (internal_nodes ());
  Array.iteri
    (fun k (r, c) ->
      let i = k + 1 in
      Printf.bprintf b
        "  r%d : entity work.resistor generic map (r => %s) port map (p => \
         %s, n => %s);\n"
        i r (node (i - 1)) (node i);
      Printf.bprintf b
        "  c%d : entity work.capacitor generic map (c => %s) port map (p => \
         %s, n => ground);\n"
        i c (node i))
    values;
  Buffer.add_string b "end architecture;\n";
  Buffer.contents b

(* Uniform R and C of the platform's RC20 model. *)
let vp_rc ~seed =
  let rng = Rng.derive seed ~stream:1_000_003 in
  let r = Rng.uniform rng ~lo:4.5e3 ~hi:5.5e3 in
  let c = Rng.uniform rng ~lo:22.5e-9 ~hi:27.5e-9 in
  (r, c)

(* The Monte Carlo tolerance sweep of examples/rect_tolerance.sweep
   (64 draws + 2 corners = 66 points of 2000 steps), with the fast
   reference engine or none. *)
let rect_spec ~spec_seed ~reference =
  Printf.sprintf
    "sweep rect_tolerance\n\
     circuit RECT\n\
     t_stop 2e-3\n\
     dt 1e-6\n\
     samples 64\n\
     seed %d\n\
     %s\
     param r1.r normal 1e3 50\n\
     param d1.g_on uniform 5e-3 2e-2\n\
     param d1.g_off uniform 1e-7 1e-5\n\
     corner nominal r1.r=1e3 d1.g_on=1e-2 d1.g_off=1e-6\n\
     corner weak_diode r1.r=1.05e3 d1.g_on=5e-3 d1.g_off=1e-5\n"
    spec_seed
    (if reference then "reference on\nfidelity fast\nnrmse_budget 5e-2\n"
     else "reference off\n")

(* Spec seeds visited by [sweep_reference]: a fixed cycle of
   [sweep_cycle] consecutive seeds starting from one the benchmark seed
   picks; op [i] uses the [i mod sweep_cycle]-th. *)
let sweep_cycle = 8

let sweep_spec_seed ~seed i = (seed * 7919 mod 100_000) + (i mod sweep_cycle)

let serve_spec_seed ~seed = 100_000 + (seed * 7919 mod 100_000)
