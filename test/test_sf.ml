(* Tests for signal-flow programs and their tight-loop runner. *)

module Sfprogram = Amsvp_sf.Sfprogram
module Trace = Amsvp_util.Trace
module Stimulus = Amsvp_util.Stimulus

let y = Expr.potential "y" "gnd"
let z = Expr.signal "z"
let input = Expr.signal "u"

let mk ?(inputs = [ "u" ]) ?(outputs = [ y ]) assignments =
  Sfprogram.make ~name:"t" ~inputs ~outputs ~assignments ~dt:1.0

let asg target expr = { Sfprogram.target; expr }

(* Validation *)

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_duplicate_target () =
  expect_invalid "duplicate target" (fun () ->
      mk [ asg y (Expr.var input); asg y Expr.zero ])

let test_unassigned_output () =
  expect_invalid "unassigned output" (fun () -> mk [ asg z (Expr.var input) ])

let test_forward_reference () =
  expect_invalid "forward read" (fun () ->
      mk ~outputs:[ y ] [ asg y (Expr.var z); asg z (Expr.var input) ])

let test_unknown_history () =
  expect_invalid "history of unknown quantity" (fun () ->
      mk [ asg y (Expr.var (Expr.delayed (Expr.signal "ghost") 1)) ])

let test_parameter_rejected () =
  expect_invalid "unresolved parameter" (fun () ->
      mk [ asg y (Expr.var (Expr.param "R")) ])

let test_ddt_rejected () =
  expect_invalid "ddt leak" (fun () -> mk [ asg y (Expr.Ddt (Expr.var input)) ])

let test_assignment_to_delayed () =
  expect_invalid "delayed target" (fun () ->
      mk [ asg (Expr.delayed y 1) (Expr.var input) ])

(* Structure *)

let test_state_and_delay () =
  let p =
    mk
      [
        asg z Expr.(var (Expr.delayed z 1) + var input);
        asg y Expr.(var z + var (Expr.delayed z 2));
      ]
  in
  Alcotest.(check int) "max delay" 2 (Sfprogram.max_delay p);
  let states = Sfprogram.state_vars p in
  Alcotest.(check int) "one state-bearing target" 1 (List.length states);
  Alcotest.(check string) "state is z" "z" (Expr.var_name (List.hd states))

let test_combinational_no_state () =
  (* Purely combinational: no history anywhere. *)
  let p = mk [ asg z Expr.(scale 2.0 (var input)); asg y (Expr.var z) ] in
  Alcotest.(check int) "max delay" 0 (Sfprogram.max_delay p);
  Alcotest.(check int) "no state vars" 0 (List.length (Sfprogram.state_vars p))

let test_transitive_delay_reference () =
  (* Only y's assignment references history, and of the *input*: the
     delay still counts towards max_delay, but state_vars lists only
     assigned targets — input histories are tracked separately by the
     runner, so they must not show up here. *)
  let p = mk [ asg y (Expr.var (Expr.delayed input 1)) ] in
  Alcotest.(check int) "max delay" 1 (Sfprogram.max_delay p);
  Alcotest.(check int) "input history is not a state var" 0
    (List.length (Sfprogram.state_vars p))

let test_output_is_state_var () =
  (* The output itself is delayed-referenced: it must appear in
     state_vars exactly once even though it is also an output. *)
  let p = mk [ asg y Expr.(var (Expr.delayed y 1) + var input) ] in
  Alcotest.(check int) "max delay" 1 (Sfprogram.max_delay p);
  let states = Sfprogram.state_vars p in
  Alcotest.(check int) "one state var" 1 (List.length states);
  Alcotest.(check string) "output doubles as state" "V(y,gnd)"
    (Expr.var_name (List.hd states))

(* Runner semantics *)

let test_accumulator () =
  let p = mk ~outputs:[ z ] [ asg z Expr.(var (Expr.delayed z 1) + var input) ] in
  let r = Sfprogram.Runner.create p in
  Sfprogram.Runner.reset r;
  Sfprogram.Runner.step r ~inputs:[| 2.0 |];
  Sfprogram.Runner.step r ~inputs:[| 3.0 |];
  Sfprogram.Runner.step r ~inputs:[| 4.0 |];
  Alcotest.(check (float 0.0)) "sum" 9.0 (Sfprogram.Runner.output r 0)

let test_two_level_history () =
  (* y_t = u_{t-2}: a two-step delay line on the input. *)
  let p = mk [ asg y (Expr.var (Expr.delayed input 2)) ] in
  let r = Sfprogram.Runner.create p in
  let feed v = Sfprogram.Runner.step r ~inputs:[| v |] in
  feed 1.0;
  feed 2.0;
  Alcotest.(check (float 0.0)) "initially zero-padded" 0.0
    (Sfprogram.Runner.output r 0);
  feed 3.0;
  Alcotest.(check (float 0.0)) "sees first input" 1.0
    (Sfprogram.Runner.output r 0);
  feed 4.0;
  Alcotest.(check (float 0.0)) "sees second input" 2.0
    (Sfprogram.Runner.output r 0)

let test_same_step_chaining () =
  (* z computed first, y reads it in the same step. *)
  let p =
    mk
      [
        asg z Expr.(scale 2.0 (var input));
        asg y Expr.(var z + Expr.const 1.0);
      ]
  in
  let r = Sfprogram.Runner.create p in
  Sfprogram.Runner.step r ~inputs:[| 5.0 |];
  Alcotest.(check (float 0.0)) "chained" 11.0 (Sfprogram.Runner.output r 0)

let test_reset_clears_state () =
  let p = mk ~outputs:[ z ] [ asg z Expr.(var (Expr.delayed z 1) + var input) ] in
  let r = Sfprogram.Runner.create p in
  Sfprogram.Runner.step r ~inputs:[| 7.0 |];
  Sfprogram.Runner.reset r;
  Sfprogram.Runner.step r ~inputs:[| 1.0 |];
  Alcotest.(check (float 0.0)) "state cleared" 1.0 (Sfprogram.Runner.output r 0)

let test_input_arity_checked () =
  let p = mk [ asg y (Expr.var input) ] in
  let r = Sfprogram.Runner.create p in
  expect_invalid "arity mismatch" (fun () -> Sfprogram.Runner.step r ~inputs:[||])

let test_input_arity_message () =
  (* The error names the program and both arities, so a mis-wired
     stimulus table is diagnosable without a debugger. *)
  let p = mk [ asg y (Expr.var input) ] in
  let r = Sfprogram.Runner.create p in
  match Sfprogram.Runner.step r ~inputs:[| 1.0; 2.0 |] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names program and arities"
        "Sfprogram.Runner.step(t): expected 1 input(s), got 2" msg

let test_read_by_name () =
  let p =
    mk [ asg z Expr.(scale 3.0 (var input)); asg y Expr.(var z - Expr.one) ]
  in
  let r = Sfprogram.Runner.create p in
  Sfprogram.Runner.step r ~inputs:[| 2.0 |];
  Alcotest.(check (float 0.0)) "read z" 6.0 (Sfprogram.Runner.read r z);
  Alcotest.(check (float 0.0)) "read y" 5.0 (Sfprogram.Runner.read r y)

(* Liveness: only what reaches an output or a declared read runs. *)

let test_read_sliced_away () =
  (* z feeds nothing: without [~reads] it is never computed, and
     reading it must fail loudly (naming it) instead of returning 0.
     The reference stepper evaluates every assignment, so it gives the
     values the output and the declared read must take. *)
  let p =
    mk [ asg z Expr.(scale 3.0 (var input)); asg y Expr.(var input - Expr.one) ]
  in
  let reference = Amsvp_sf.Reference.create p in
  Amsvp_sf.Reference.step reference ~inputs:[| 2.0 |];
  let r = Sfprogram.Runner.create p in
  Sfprogram.Runner.step r ~inputs:[| 2.0 |];
  Alcotest.(check (float 0.0)) "output"
    (Amsvp_sf.Reference.read reference y)
    (Sfprogram.Runner.read r y);
  (match Sfprogram.Runner.read r z with
  | v -> Alcotest.failf "read of sliced-away z returned %g" v
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names z: " ^ msg) true
        (List.mem "z" (String.split_on_char ' ' msg)));
  let r = Sfprogram.Runner.create ~reads:[ z ] p in
  Sfprogram.Runner.step r ~inputs:[| 2.0 |];
  Alcotest.(check (float 0.0)) "declared read"
    (Amsvp_sf.Reference.read reference z)
    (Sfprogram.Runner.read r z)

(* [rebind] keeps the runner's live set, [~reads] included: onto a
   program whose outputs make another set live it refuses, and the
   runner still runs its own program. *)
let test_rebind_refuses_other_live_set () =
  let assignments k =
    [ asg z Expr.(scale k (var input)); asg y Expr.(var input - Expr.one) ]
  in
  let p = mk (assignments 3.0) in
  let other_output = mk ~outputs:[ z ] (assignments 3.0) in
  let values r =
    Trace.values
      (Sfprogram.Runner.run r ~stimuli:[| (fun t -> t) |] ~t_stop:4.0 ())
  in
  let widened = Sfprogram.Runner.create ~reads:[ z ] p in
  List.iter
    (fun (name, r) ->
      let before = values r in
      Alcotest.(check bool) (name ^ ": refused") true
        (Option.is_none (Sfprogram.Runner.rebind r other_output));
      Alcotest.(check (array (float 0.0))) (name ^ ": runner unchanged")
        before (values r))
    [ ("another output", Sfprogram.Runner.create p); ("~reads z", widened) ];
  Alcotest.(check (float 0.0)) "~reads z: z still read" 12.0
    (Sfprogram.Runner.read widened z);
  match Sfprogram.Runner.rebind widened (mk (assignments 5.0)) with
  | None -> Alcotest.fail "same live set refused"
  | Some r ->
      ignore (values r);
      Alcotest.(check (float 0.0)) "the reads carry over" 20.0
        (Sfprogram.Runner.read r z)

(* [rebind] plans the program on the runner's own layout: a program
   with a target or a read that has no slot there, live or dead, or
   with other inputs, is refused with [None], never an exception, and
   the runner is left as it was. *)
let test_rebind_refuses_outside_layout () =
  let w = Expr.signal "w" and u2 = Expr.signal "v" in
  let p = mk [ asg z Expr.(scale 3.0 (var input)); asg y Expr.(var input - one) ] in
  let r = Sfprogram.Runner.create p in
  let values () =
    Trace.values
      (Sfprogram.Runner.run r ~stimuli:[| (fun t -> t) |] ~t_stop:4.0 ())
  in
  let before = values () in
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) (name ^ ": refused") true
        (Option.is_none (Sfprogram.Runner.rebind r q));
      Alcotest.(check (array (float 0.0))) (name ^ ": runner unchanged")
        before (values ()))
    [
      ( "a new target",
        mk
          [
            asg z Expr.(scale 3.0 (var input));
            asg w Expr.(scale 2.0 (var input));
            asg y Expr.(var input - one);
          ] );
      ( "a new read, live",
        mk
          [
            asg z Expr.(scale 3.0 (var input));
            asg y Expr.(var (Expr.delayed input 1) - one);
          ] );
      ( "a new read, dead",
        mk
          [
            asg z Expr.(scale 3.0 (var (Expr.delayed z 1)));
            asg y Expr.(var input - one);
          ] );
      ( "other inputs",
        mk ~inputs:[ "u"; "v" ]
          [ asg z Expr.(scale 3.0 (var u2)); asg y Expr.(var input - one) ] );
    ];
  Alcotest.(check bool) "a same-layout program rebinds" true
    (Option.is_some
       (Sfprogram.Runner.rebind r
          (mk [ asg z Expr.(scale 5.0 (var input)); asg y Expr.(var input - one) ])))

let test_run_records_trace () =
  let p = mk [ asg y (Expr.var input) ] in
  let r = Sfprogram.Runner.create p in
  let tr = Sfprogram.Runner.run r ~stimuli:[| (fun t -> t) |] ~t_stop:5.0 () in
  Alcotest.(check int) "samples" 6 (Trace.length tr);
  Alcotest.(check (float 1e-12)) "identity at t=3" 3.0 (Trace.sample_at tr 3.0)

(* The run loop adds its tick and op counters once per run; the totals
   must still be exact: one tick per step, one op per live assignment
   evaluated, and after an aborted run the steps actually taken. *)
module Obs = Amsvp_obs.Obs

let c_ticks = Obs.Counter.make "amsvp_sf_ticks_total"
let c_ops = Obs.Counter.make "amsvp_sf_ops_total"

let counted f =
  let t0 = Obs.Counter.value c_ticks and o0 = Obs.Counter.value c_ops in
  let x = f () in
  (x, Obs.Counter.value c_ticks - t0, Obs.Counter.value c_ops - o0)

exception Stop

let test_run_counters_exact () =
  (* y and w are live, z reaches no output: two ops per step. *)
  let w = Expr.signal "w" in
  let p =
    mk
      [
        asg w Expr.(var input + var (Expr.delayed w 1));
        asg z Expr.(scale 3.0 (var input));
        asg y Expr.(var w - Expr.one);
      ]
  in
  let r = Sfprogram.Runner.create p in
  let tr, ticks, ops =
    counted (fun () ->
        Sfprogram.Runner.run r ~stimuli:[| (fun t -> t) |] ~t_stop:40.0 ())
  in
  Alcotest.(check int) "samples" 41 (Trace.length tr);
  Alcotest.(check int) "ticks = nsteps" 40 ticks;
  Alcotest.(check int) "ops = nsteps x live" 80 ops;
  (* [observe] aborts the run right after step 17. *)
  let stop_at_17 time _ = if time = 17.0 then raise Stop in
  let into = Trace.create () in
  let aborted, ticks, ops =
    counted (fun () ->
        match
          Sfprogram.Runner.run_into r
            ~sources:[| Sfprogram.Runner.Fn (fun t -> t) |]
            ~t_stop:40.0 ~observe:stop_at_17 into
        with
        | () -> false
        | exception Stop -> true)
  in
  Alcotest.(check bool) "aborted" true aborted;
  Alcotest.(check int) "ticks = steps taken" 17 ticks;
  Alcotest.(check int) "ops = steps taken x live" 34 ops;
  Alcotest.(check int) "samples up to the abort" 18 (Trace.length into);
  (* w at step 17 is 1 + 2 + ... + 17 = 153 *)
  Alcotest.(check (float 0.0)) "last sample" 152.0 (Trace.last_value into)

let test_run_into_tables () =
  (* A sampled table drives the loop exactly as the function it was
     sampled from, and a reused trace takes the new run's length. *)
  let p = mk [ asg y Expr.(var input + scale 0.5 (var (Expr.delayed y 1))) ] in
  let r = Sfprogram.Runner.create p in
  let f = Stimulus.sine ~freq:0.013 ~amplitude:2.0 in
  let reference = Sfprogram.Runner.run r ~stimuli:[| f |] ~t_stop:50.0 () in
  let tr = Trace.create () in
  let table = Stimulus.sample f ~dt:1.0 ~n:51 in
  Sfprogram.Runner.run_into r ~sources:[| Sfprogram.Runner.Table table |]
    ~t_stop:50.0 tr;
  Alcotest.(check (array (float 0.0))) "values" (Trace.values reference)
    (Trace.values tr);
  Alcotest.(check (array (float 0.0))) "times" (Trace.times reference)
    (Trace.times tr);
  Sfprogram.Runner.run_into r ~sources:[| Sfprogram.Runner.Table table |]
    ~t_stop:10.0 tr;
  Alcotest.(check int) "shorter rerun" 11 (Trace.length tr);
  Alcotest.(check (float 0.0)) "rerun from reset state"
    (Trace.value reference 10) (Trace.last_value tr);
  expect_invalid "table shorter than the run" (fun () ->
      Sfprogram.Runner.run_into r ~sources:[| Sfprogram.Runner.Table table |]
        ~t_stop:51.0 tr);
  expect_invalid "source arity" (fun () ->
      Sfprogram.Runner.run_into r ~sources:[||] ~t_stop:5.0 tr)

(* Serialisation *)

module Serialize = Amsvp_sf.Serialize
module Compile = Amsvp_sf.Compile
module Circuits = Amsvp_netlist.Circuits
module Flow = Amsvp_core.Flow
module Metrics = Amsvp_util.Metrics

(* The RC20 ladder at the simulate defaults: 81 assignments, of which
   the capacitor currents and resistor voltages reach no output. *)
let test_rc20_counts () =
  let p =
    (Flow.abstract_testcase (Circuits.rc_ladder 20) ~dt:50e-9).Flow.program
  in
  Alcotest.(check int) "assignments" 81 (List.length p.Sfprogram.assignments);
  Alcotest.(check int) "dead" 38 (List.length (Sfprogram.dead_targets p));
  let c = Sfprogram.compile p in
  Alcotest.(check int) "live assignments" 43
    (Array.length (Compile.target_slots c));
  (* each of the 38 ladder rows [d := k1*x1 + k2*x2 + k3*x3] is one
     instruction, plus two two-term rows, two moves and two products *)
  Alcotest.(check int) "fused instructions" 44 (Compile.n_instrs c);
  Alcotest.(check (list (pair string int))) "opcode mix"
    [ ("lin", 40); ("mov", 2); ("mul", 2) ]
    (Compile.traffic c).Compile.t_opcode_mix

(* Every artifact is a template: a runner of a circuit at the
   simulate defaults rebinds to the program of the same circuit with
   other R/C values, after a run to completion and after a run its
   observer aborted, and the rebound runner carries nothing over: its
   run is bit for bit a fresh runner's (times, values and counters). *)
let test_every_artifact_rebinds () =
  let scaled (tc : Circuits.testcase) =
    let circuit = tc.Circuits.circuit in
    let bindings =
      List.filter_map
        (fun (key, v) ->
          if String.ends_with ~suffix:".r" key then Some (key, v *. 1.3)
          else if String.ends_with ~suffix:".c" key then Some (key, v *. 0.7)
          else None)
        (Amsvp_netlist.Circuit.params circuit)
    in
    { tc with Circuits.circuit = Amsvp_netlist.Circuit.override circuit bindings }
  in
  List.iter
    (fun (label, dt) ->
      let tc = Option.get (Circuits.by_name label) in
      let name = Printf.sprintf "%s at %g s" label dt in
      let p = (Flow.abstract_testcase tc ~dt).Flow.program in
      let p' = (Flow.abstract_testcase (scaled tc) ~dt).Flow.program in
      let stimuli =
        Array.of_list
          (List.map
             (fun i -> List.assoc i tc.Circuits.stimuli)
             p'.Sfprogram.inputs)
      in
      let run ?observe r =
        counted (fun () ->
            Sfprogram.Runner.run r ~stimuli ~t_stop:(400.0 *. dt) ?observe ())
      in
      let fresh, fresh_ticks, fresh_ops = run (Sfprogram.Runner.create p') in
      let bits = Int64.bits_of_float in
      List.iter
        (fun (how, observe) ->
          let r = Sfprogram.Runner.create p in
          (match run ?observe r with _ -> () | exception Stop -> ());
          match Sfprogram.Runner.rebind r p' with
          | None -> Alcotest.failf "%s: the runner refused to rebind %s" name how
          | Some r ->
              let rebound, ticks, ops = run r in
              let name = Printf.sprintf "%s, rebound %s" name how in
              Alcotest.(check int) (name ^ ": samples") (Trace.length fresh)
                (Trace.length rebound);
              for i = 0 to Trace.length fresh - 1 do
                let ta = Trace.time fresh i and tb = Trace.time rebound i in
                let a = Trace.value fresh i and b = Trace.value rebound i in
                if bits ta <> bits tb || bits a <> bits b then
                  Alcotest.failf "%s: sample %d is (%h, %h), fresh (%h, %h)"
                    name i tb b ta a
              done;
              Alcotest.(check (pair int int)) (name ^ ": counters")
                (fresh_ticks, fresh_ops) (ticks, ops))
        [
          ("after a run", None);
          ( "after an aborted run",
            Some (fun time _ -> if time >= 100.0 *. dt then raise Stop) );
        ])
    (List.concat_map
       (fun label -> [ (label, 50e-9); (label, 1e-6) ])
       [ "2IN"; "RC1"; "RC20"; "OA"; "RECT"; "RLC" ])

(* A product two rows share stays a [Mul]; each row around it is one
   [Lin] that reads the shared product as a plain term. Traffic counts
   a row of k products and p plain terms as 2k + p reads and
   2k + p - 1 flops. *)
let test_row_fusion () =
  let v = Expr.signal "v" in
  let uv = Expr.Mul (Expr.var input, Expr.var v) in
  let k c x = Expr.Mul (Expr.Const c, Expr.var x) in
  let sum = function
    | t :: ts -> List.fold_left (fun a b -> Expr.Add (a, b)) t ts
    | [] -> invalid_arg "sum"
  in
  let p =
    mk ~inputs:[ "u"; "v" ]
      [
        asg z (sum [ uv; k 2.0 input; k 3.0 v; k 5.0 (Expr.delayed input 1) ]);
        asg y (sum [ k 7.0 z; uv ]);
      ]
  in
  let c = Sfprogram.compile p in
  let tr = Compile.traffic c in
  Alcotest.(check (list (pair string int))) "opcode mix"
    [ ("lin", 2); ("mul", 1) ]
    tr.Compile.t_opcode_mix;
  Alcotest.(check int) "reads" (2 + 7 + 3) tr.Compile.t_reads;
  Alcotest.(check int) "writes" 3 tr.Compile.t_writes;
  Alcotest.(check int) "flops" (1 + 6 + 2) tr.Compile.t_flops;
  let rows =
    String.split_on_char '\n' (Format.asprintf "%a" Compile.pp c)
    |> List.map (fun l -> List.length (String.split_on_char '+' l) - 1)
  in
  Alcotest.(check bool) "the four-term row prints whole" true
    (List.mem 3 rows);
  (* A shared product scheduled between a row and the row it absorbs
     moves in front of both, so [z] stays one instruction. *)
  let p =
    mk ~inputs:[ "u"; "v" ]
      [
        asg z (sum [ sum [ k 2.0 input; k 3.0 v ]; uv ]);
        asg y (sum [ uv; k 7.0 z ]);
      ]
  in
  let c = Sfprogram.compile p in
  Alcotest.(check int) "instructions" 3 (Compile.n_instrs c);
  Alcotest.(check string) "listing"
    "bytecode: 3 instr, 8 regs (4 slots, 3 consts)\n\
    \  t0 = s0 * s1;\n\
    \  s2 = c0{2} * s0 + c1{3} * s1 + t0;\n\
    \  s3 = t0 + c2{7} * s2;"
    (Format.asprintf "%a" Compile.pp c)

(* Minor-heap words allocated while [f ()] runs. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The bytecode loop indexes the register file directly: an [exec]
   builds no closure and boxes no float. RECT's diode is one lazy
   conditional; its input alternates sign every 10 steps, so the
   measured steps take both arms. *)
let test_exec_allocation_free () =
  List.iter
    (fun (label, tc, lazy_conditionals) ->
      let p = (Flow.abstract_testcase tc ~dt:50e-9).Flow.program in
      let c = Sfprogram.compile p in
      Alcotest.(check int) (label ^ ": lazy conditionals") lazy_conditionals
        (Compile.lazy_conditionals c);
      let regs = Array.make (Compile.n_regs c) 0.0 in
      Compile.load_consts c regs;
      let inputs = Sfprogram.layout_input_slots (Sfprogram.layout_of p) in
      let step k =
        let u = if k / 10 mod 2 = 0 then 1.0 else -1.0 in
        for i = 0 to Array.length inputs - 1 do
          regs.(inputs.(i)) <- u
        done;
        Compile.exec c regs
      in
      step 0;
      let words =
        minor_words (fun () ->
            for k = 1 to 1000 do
              step k
            done)
      in
      Alcotest.(check (float 0.0)) (label ^ ": minor words of 1000 exec") 0.0
        words)
    [ ("RC20", Circuits.rc_ladder 20, 0); ("RECT", Circuits.rectifier (), 1) ]

(* [Compile.run] steps the same body in its own loop: 1000 table-fed
   steps allocate nothing, and every index it will use unchecked is
   checked once, up front. *)
let test_compiled_run () =
  let p = (Flow.abstract_testcase (Circuits.rectifier ()) ~dt:50e-9).Flow.program in
  let c = Sfprogram.compile p in
  let regs = Array.make (Compile.n_regs c) 0.0 in
  Compile.load_consts c regs;
  let lay = Sfprogram.layout_of p in
  let inputs = Sfprogram.layout_input_slots lay in
  let out = (Sfprogram.layout_output_slots lay).(0) in
  let tables = Array.map (fun _ -> Array.init 1001 float_of_int) inputs in
  let values = Array.make 1001 0.0 in
  let run ?(regs = regs) ?(inputs = inputs) ?(tables = tables) ?(out = out)
      ?(values = values) n () =
    Compile.run c regs ~inputs ~tables ~out values n
  in
  run 1000 ();
  Alcotest.(check (float 0.0)) "minor words of a 1000-step run" 0.0
    (minor_words (run 1000));
  expect_invalid "short register file" (run ~regs:[| 0.0 |] 10);
  expect_invalid "table count" (run ~tables:[||] 10);
  expect_invalid "input slot"
    (run ~inputs:(Array.map (fun _ -> Compile.n_slots c) inputs) 10);
  expect_invalid "output slot" (run ~out:(-1) 10);
  expect_invalid "short table" (run 1001);
  expect_invalid "short output buffer" (run ~values:[| 0.0 |] 10)

(* The artifact is the step: a bare register file stepped by
   [Compile.exec] alone (constants loaded once, inputs stored at their
   layout slots) holds, after every step, the outputs and the histories
   [Runner.step] gives, bit for bit: the rotations are inside the
   artifact. *)
let test_artifact_is_the_step () =
  let histories = ref 0 in
  List.iter
    (fun label ->
      let tc = Option.get (Circuits.by_name label) in
      let dt = 50e-9 in
      let p = (Flow.abstract_testcase tc ~dt).Flow.program in
      let c = Sfprogram.compile p in
      let regs = Array.make (Compile.n_regs c) 0.0 in
      Compile.load_consts c regs;
      let r = Sfprogram.Runner.create p in
      let pl = Sfprogram.plan p in
      let lay = pl.Sfprogram.layout in
      let input_slots = Sfprogram.layout_input_slots lay in
      let vars = Sfprogram.layout_vars lay in
      let history =
        List.filter
          (fun s -> pl.Sfprogram.readable.(s) && vars.(s).Expr.delay >= 1)
          (List.init (Array.length vars) Fun.id)
      in
      histories := !histories + List.length history;
      let checked = Array.to_list (Sfprogram.layout_output_slots lay) @ history in
      let stimuli =
        List.map (fun i -> List.assoc i tc.Circuits.stimuli) p.Sfprogram.inputs
      in
      for k = 1 to 400 do
        let t = float_of_int k *. dt in
        let inputs = Array.of_list (List.map (fun f -> f t) stimuli) in
        Array.iteri (fun i s -> regs.(s) <- inputs.(i)) input_slots;
        Compile.exec c regs;
        Sfprogram.Runner.step r ~inputs;
        List.iter
          (fun s ->
            let a = regs.(s) and b = Sfprogram.Runner.read r vars.(s) in
            if Int64.bits_of_float a <> Int64.bits_of_float b then
              Alcotest.failf "%s: step %d, %s: %h vs runner %h" label k
                (Expr.var_name vars.(s)) a b)
          checked
      done)
    [ "2IN"; "RC1"; "RC20"; "OA"; "RECT"; "RLC" ];
  Alcotest.(check bool) "histories compared" true (!histories > 0)

let roundtrip_equal_traces p stimuli t_stop =
  let text = Serialize.program_to_string p in
  let p' = Serialize.program_of_string text in
  let run prog =
    let r = Sfprogram.Runner.create prog in
    Sfprogram.Runner.run r ~stimuli ~t_stop ()
  in
  let a = run p and b = run p' in
  Alcotest.(check int) "same sample count" (Trace.length a) (Trace.length b);
  for i = 0 to Trace.length a - 1 do
    let va = Trace.value a i and vb = Trace.value b i in
    if not (va = vb || abs_float (va -. vb) <= 1e-15 *. abs_float va) then
      Alcotest.failf "sample %d differs: %.17g vs %.17g" i va vb
  done

let test_serialize_rc_program () =
  let tc = Circuits.rc_ladder 2 in
  let p = (Flow.abstract_testcase tc ~dt:1e-6).Flow.program in
  roundtrip_equal_traces p
    [| Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0 |]
    2e-3

let test_serialize_pwl_program () =
  (* Conditions and ternaries must survive the round-trip. *)
  let ckt = Amsvp_netlist.Circuit.create () in
  Amsvp_netlist.Circuit.add_vsource ckt ~name:"vin" ~pos:"in" ~neg:"gnd"
    (Amsvp_netlist.Component.Input "in");
  Amsvp_netlist.Circuit.add_resistor ckt ~name:"r1" ~pos:"in" ~neg:"a" 1.0e3;
  Amsvp_netlist.Circuit.add_pwl_conductance ckt ~name:"d1" ~pos:"a" ~neg:"gnd"
    ~g_on:0.01 ~g_off:1e-9 ~threshold:0.0;
  let p =
    (Flow.abstract_circuit ckt ~outputs:[ Expr.potential "a" "gnd" ] ~dt:1e-6)
      .Flow.program
  in
  roundtrip_equal_traces p
    [| Stimulus.sine ~freq:1e3 ~amplitude:1.0 |]
    2e-3

let test_serialize_header_roundtrip () =
  let p = mk ~outputs:[ y ] [ asg y (Expr.var input) ] in
  let p' = Serialize.program_of_string (Serialize.program_to_string p) in
  Alcotest.(check string) "name" p.Sfprogram.name p'.Sfprogram.name;
  Alcotest.(check (float 0.0)) "dt" p.Sfprogram.dt p'.Sfprogram.dt;
  Alcotest.(check (list string)) "inputs" p.Sfprogram.inputs p'.Sfprogram.inputs;
  Alcotest.(check int) "outputs" 1 (List.length p'.Sfprogram.outputs)

let test_serialize_errors () =
  let expect name text =
    Alcotest.(check bool) name true
      (try
         ignore (Serialize.program_of_string text);
         false
       with Serialize.Parse_error _ -> true)
  in
  expect "missing header" "assign x := 1";
  expect "bad version" "sfprogram 9\nname t\ndt 1\ninputs\noutputs x\n";
  expect "bad expression"
    "sfprogram 1\nname t\ndt 1\ninputs u\noutputs x\nassign x := 1 +\n";
  expect "unknown directive"
    "sfprogram 1\nname t\ndt 1\nfrobnicate\n"

(* Properties *)

let prop_linear_program_superposition =
  (* For a program with linear assignments, scaling the input scales the
     output (zero initial state). *)
  QCheck.Test.make ~name:"linear programs scale with their input" ~count:50
    QCheck.(pair (float_range 0.1 10.0) (int_range 1 40))
    (fun (k, steps) ->
      let p =
        mk ~outputs:[ z ]
          [ asg z Expr.(scale 0.5 (var (Expr.delayed z 1)) + var input) ]
      in
      let run scale =
        let r = Sfprogram.Runner.create p in
        Sfprogram.Runner.reset r;
        for i = 1 to steps do
          Sfprogram.Runner.step r ~inputs:[| scale *. float_of_int i |]
        done;
        Sfprogram.Runner.output r 0
      in
      let a = run 1.0 and b = run k in
      abs_float (b -. (k *. a)) <= 1e-9 *. (1.0 +. abs_float b))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "signalflow"
    [
      ( "validation",
        [
          Alcotest.test_case "duplicate target" `Quick test_duplicate_target;
          Alcotest.test_case "unassigned output" `Quick test_unassigned_output;
          Alcotest.test_case "forward reference" `Quick test_forward_reference;
          Alcotest.test_case "unknown history" `Quick test_unknown_history;
          Alcotest.test_case "parameter rejected" `Quick test_parameter_rejected;
          Alcotest.test_case "ddt rejected" `Quick test_ddt_rejected;
          Alcotest.test_case "delayed target rejected" `Quick
            test_assignment_to_delayed;
        ] );
      ( "structure",
        [
          Alcotest.test_case "state and delay" `Quick test_state_and_delay;
          Alcotest.test_case "combinational" `Quick test_combinational_no_state;
          Alcotest.test_case "transitive delay" `Quick
            test_transitive_delay_reference;
          Alcotest.test_case "output doubles as state" `Quick
            test_output_is_state_var;
        ] );
      ( "runner",
        [
          Alcotest.test_case "accumulator" `Quick test_accumulator;
          Alcotest.test_case "two-level history" `Quick test_two_level_history;
          Alcotest.test_case "same-step chaining" `Quick test_same_step_chaining;
          Alcotest.test_case "reset" `Quick test_reset_clears_state;
          Alcotest.test_case "input arity" `Quick test_input_arity_checked;
          Alcotest.test_case "input arity message" `Quick
            test_input_arity_message;
          Alcotest.test_case "read by variable" `Quick test_read_by_name;
          Alcotest.test_case "trace recording" `Quick test_run_records_trace;
          Alcotest.test_case "read of a sliced-away target" `Quick
            test_read_sliced_away;
          Alcotest.test_case "rebind refuses another live set" `Quick
            test_rebind_refuses_other_live_set;
          Alcotest.test_case "rebind refuses a program outside the layout"
            `Quick test_rebind_refuses_outside_layout;
          Alcotest.test_case "RC20 live and fused counts" `Quick
            test_rc20_counts;
          Alcotest.test_case "every artifact rebinds" `Quick
            test_every_artifact_rebinds;
          Alcotest.test_case "shared product and rows" `Quick test_row_fusion;
          Alcotest.test_case "the artifact is the step" `Quick
            test_artifact_is_the_step;
          Alcotest.test_case "exec allocates nothing" `Quick
            test_exec_allocation_free;
          Alcotest.test_case "run allocates nothing, checks its arguments"
            `Quick test_compiled_run;
          Alcotest.test_case "counters exact, also after an abort" `Quick
            test_run_counters_exact;
          Alcotest.test_case "table sources and trace reuse" `Quick
            test_run_into_tables;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "RC program round-trip" `Quick
            test_serialize_rc_program;
          Alcotest.test_case "PWL program round-trip" `Quick
            test_serialize_pwl_program;
          Alcotest.test_case "header round-trip" `Quick
            test_serialize_header_roundtrip;
          Alcotest.test_case "errors" `Quick test_serialize_errors;
        ] );
      ( "properties",
        qt [ prop_linear_program_superposition ] );
    ]
