module Stimulus = Amsvp_util.Stimulus

type testcase = {
  label : string;
  circuit : Circuit.t;
  output : Expr.var;
  stimuli : (string * Stimulus.t) list;
}

let open_loop_gain = 1.0e5

let square_1ms = Stimulus.square ~period:1.0e-3 ~low:0.0 ~high:1.0
let square_2ms = Stimulus.square ~period:2.0e-3 ~low:0.0 ~high:1.0

let rc_ladder ?(r = 5.0e3) ?(c = 25.0e-9) n =
  if n < 1 then invalid_arg "Circuits.rc_ladder: need at least one stage";
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Component.Input "in");
  let node i = if i = 0 then "in" else if i = n then "out" else Printf.sprintf "n%d" i in
  for i = 1 to n do
    Circuit.add_resistor ckt
      ~name:(Printf.sprintf "r%d" i)
      ~pos:(node (i - 1))
      ~neg:(node i) r;
    Circuit.add_capacitor ckt
      ~name:(Printf.sprintf "c%d" i)
      ~pos:(node i) ~neg:"gnd" c
  done;
  {
    label = Printf.sprintf "RC%d" n;
    circuit = ckt;
    output = Expr.potential "out" "gnd";
    stimuli = [ ("in", square_1ms) ];
  }

let two_input () =
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin1" ~pos:"in1" ~neg:"gnd"
    (Component.Input "in1");
  Circuit.add_vsource ckt ~name:"vin2" ~pos:"in2" ~neg:"gnd"
    (Component.Input "in2");
  Circuit.add_resistor ckt ~name:"r1" ~pos:"in1" ~neg:"x" 3.0e3;
  Circuit.add_resistor ckt ~name:"r2" ~pos:"in2" ~neg:"x" 14.0e3;
  Circuit.add_resistor ckt ~name:"r3" ~pos:"x" ~neg:"out" 10.0e3;
  (* Ideal inverting op-amp: the output node is driven by a VCVS with a
     large open-loop gain sensed at the virtual-ground node x. *)
  Circuit.add_vcvs ckt ~name:"eop" ~pos:"out" ~neg:"gnd"
    ~gain:(-.open_loop_gain) ~ctrl_pos:"x" ~ctrl_neg:"gnd";
  {
    label = "2IN";
    circuit = ckt;
    output = Expr.potential "out" "gnd";
    stimuli = [ ("in1", square_1ms); ("in2", square_2ms) ];
  }

let opamp () =
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Component.Input "in");
  Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"ninv" 400.0;
  (* Feedback network R2 || C1 makes the stage a first-order active
     low-pass filter (the "active filter" of Fig. 2). *)
  Circuit.add_resistor ckt ~name:"r2" ~pos:"ninv" ~neg:"out" 1.6e3;
  Circuit.add_capacitor ckt ~name:"c1" ~pos:"ninv" ~neg:"out" 40.0e-9;
  Circuit.add_resistor ckt ~name:"rin" ~pos:"ninv" ~neg:"gnd" 1.0e6;
  Circuit.add_vcvs ckt ~name:"eop" ~pos:"e" ~neg:"gnd"
    ~gain:(-.open_loop_gain) ~ctrl_pos:"ninv" ~ctrl_neg:"gnd";
  Circuit.add_resistor ckt ~name:"rout" ~pos:"e" ~neg:"out" 20.0;
  {
    label = "OA";
    circuit = ckt;
    output = Expr.potential "out" "gnd";
    stimuli = [ ("in", square_1ms) ];
  }

let rlc_series ?(r = 100.0) ?(l = 10.0e-3) () =
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Component.Input "in");
  Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"n1" r;
  Circuit.add_inductor ckt ~name:"l1" ~pos:"n1" ~neg:"out" l;
  Circuit.add_capacitor ckt ~name:"c1" ~pos:"out" ~neg:"gnd" 1.0e-6;
  {
    label = "RLC";
    circuit = ckt;
    output = Expr.potential "out" "gnd";
    stimuli = [ ("in", square_1ms) ];
  }

let rectifier ?(r = 1.0e3) ?(g_on = 1.0 /. 100.0) () =
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Component.Input "in");
  Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"out" r;
  Circuit.add_pwl_conductance ckt ~name:"d1" ~pos:"out" ~neg:"gnd" ~g_on
    ~g_off:1e-6 ~threshold:0.0;
  {
    label = "RECT";
    circuit = ckt;
    output = Expr.potential "out" "gnd";
    stimuli = [ ("in", Stimulus.sine ~freq:1e3 ~amplitude:1.0) ];
  }

let by_name label =
  match label with
  | "2IN" -> Some (two_input ())
  | "OA" -> Some (opamp ())
  | "RLC" -> Some (rlc_series ())
  | "RECT" -> Some (rectifier ())
  | _ ->
      if String.length label > 2 && String.sub label 0 2 = "RC" then
        match int_of_string_opt (String.sub label 2 (String.length label - 2)) with
        | Some n when n >= 1 -> Some (rc_ladder n)
        | Some _ | None -> None
      else None

let all_paper_cases () =
  [ two_input (); rc_ladder 1; rc_ladder 20; opamp () ]
