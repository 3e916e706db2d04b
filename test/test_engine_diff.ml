(* Differential tests of the signal-flow runner against the reference
   stepper [Amsvp_sf.Reference], which evaluates every assignment's
   tree with [Expr.eval] and shares no slot layout, step plan or
   rotation with the runner. The runner's register bytecode must
   produce identical traces: within 1 ulp on every built-in paper
   circuit and on the checked-in example models, including runs whose
   stimuli inject NaN and infinities, and bit for bit on randomly
   generated programs (NaN, +-inf and -0 constants included), whether
   every assignment runs or only the live ones, and on generated sums
   of products, the rows the bytecode fuses into one instruction. The
   [Runner.rebind] path (what the sweep engine replays) is exercised
   by rebinding a runner of each random program, after a run, to a
   constant-perturbed sibling. *)

module Sfprogram = Amsvp_sf.Sfprogram
module Reference = Amsvp_sf.Reference
module Compile = Amsvp_sf.Compile
module Flow = Amsvp_core.Flow
module Circuits = Amsvp_netlist.Circuits
module Metrics = Amsvp_util.Metrics
module Trace = Amsvp_util.Trace
module Stimulus = Amsvp_util.Stimulus
module Wrap = Amsvp_sysc.Wrap
module Parser = Amsvp_vams.Parser
module Elaborate = Amsvp_vams.Elaborate
module Absint = Amsvp_analysis.Absint

module Obs = Amsvp_obs.Obs

let c_ticks = Obs.Counter.make "amsvp_sf_ticks_total"
let c_ops = Obs.Counter.make "amsvp_sf_ops_total"

let ulp_ok a b = Int64.compare (Metrics.ulp_distance a b) 1L <= 0

let check_traces label a b =
  Alcotest.(check int) (label ^ ": sample count") (Trace.length a)
    (Trace.length b);
  for i = 0 to Trace.length a - 1 do
    let va = Trace.value a i and vb = Trace.value b i in
    if not (ulp_ok va vb) then
      Alcotest.failf "%s: sample %d differs: %h vs %h (t=%.9g)" label i va vb
        (Trace.time a i)
  done

(* Reference and bytecode traces of [p] under [stimuli]. *)
let reference p ~stimuli = Reference.run p ~stimuli ~t_stop:2e-3

let bytecode_run r ~stimuli = Sfprogram.Runner.run r ~stimuli ~t_stop:2e-3 ()
let bytecode p ~stimuli = bytecode_run (Sfprogram.Runner.create p) ~stimuli

(* ---- Built-in circuits, fresh and rebound runners ---- *)

let diff_circuit (tc : Circuits.testcase) =
  let p = (Flow.abstract_testcase tc ~dt:1e-6).Flow.program in
  let stimuli = Wrap.stimuli_for p tc.Circuits.stimuli in
  let expected = reference p ~stimuli in
  check_traces (tc.Circuits.label ^ " reference/bytecode") expected
    (bytecode p ~stimuli);
  (* Same check through a runner rebound, after a run, to the program
     it was created for, as the sweep engine rebinds its kept runner. *)
  let r = Sfprogram.Runner.create p in
  ignore (bytecode_run r ~stimuli);
  match Sfprogram.Runner.rebind r p with
  | None -> Alcotest.failf "%s: rebind onto itself refused" tc.Circuits.label
  | Some r ->
      check_traces (tc.Circuits.label ^ " reference/rebound") expected
        (bytecode_run r ~stimuli)

let test_paper_circuits () =
  List.iter diff_circuit (Circuits.all_paper_cases ())

let test_more_circuits () =
  List.iter diff_circuit
    [ Circuits.rc_ladder 4; Circuits.rlc_series (); Circuits.rectifier () ]

let test_non_finite_stimulus () =
  (* A stimulus that turns NaN, then infinite, mid-run: the bytecode
     must poison the state as the reference does, sample for sample. *)
  List.iter
    (fun label ->
      let tc = Option.get (Circuits.by_name label) in
      let p = (Flow.abstract_testcase tc ~dt:1e-6).Flow.program in
      let stim t =
        if t < 5e-4 then 1.0
        else if t < 1e-3 then nan
        else if t < 1.5e-3 then infinity
        else 0.0
      in
      let stimuli =
        Array.make (List.length p.Sfprogram.inputs) stim
      in
      check_traces (label ^ " non-finite") (reference p ~stimuli)
        (bytecode p ~stimuli))
    [ "RC1"; "RECT"; "OA" ]

(* ---- Example models through the Verilog-AMS front end ---- *)

(* [dune runtest] runs from the test build directory, [dune exec] from
   the project root: resolve the examples next to the executable, one
   level up, where dune mirrors them either way. *)
let example_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "../examples"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let program_of_example file ~top =
  let src = read_file (Filename.concat example_dir file) in
  let flat = Elaborate.flatten (Parser.parse ~file src) ~top in
  let output = Expr.potential "out" "gnd" in
  match Elaborate.classify flat with
  | `Conservative ->
      (Flow.abstract_circuit ~name:top
         (Elaborate.to_circuit flat)
         ~outputs:[ output ] ~dt:1e-6)
        .Flow.program
  | `Signal_flow ->
      Flow.convert_signal_flow ~name:top ~inputs:flat.Elaborate.input_ports
        ~outputs:[ output ]
        ~contributions:(Elaborate.signal_flow_assignments flat)
        ~dt:1e-6

let test_example_models () =
  List.iter
    (fun (file, top) ->
      let p = program_of_example file ~top in
      let stimuli =
        Array.make
          (List.length p.Sfprogram.inputs)
          (Stimulus.square ~period:1e-3 ~low:0.0 ~high:1.0)
      in
      check_traces (file ^ " reference/bytecode") (reference p ~stimuli)
        (bytecode p ~stimuli))
    [ ("rc_lowpass.vams", "rc_lowpass"); ("sf_lowpass.vams", "sf_lowpass") ]

(* ---- Random programs ---- *)

(* The generator grows a valid program directly: assignment [i] may
   read the inputs and targets [0..i-1] at the current time, and any
   target up to [i] (itself included) or an input at delays 1..2 —
   exactly what [Sfprogram.make] admits, so nothing is discarded. *)

let inputs = [ "u0"; "u1" ]
let input_vars = List.map Expr.signal inputs
let target_var i = Expr.signal (Printf.sprintf "s%d" i)

let interesting =
  [|
    0.0; -0.0; 1.0; -1.0; 0.5; -2.0; 3.141592653589793; 1e-12; -1e-12; 1e12;
    1e300; -1e300; 1e-300; 7.25; nan; infinity; neg_infinity;
  |]

let gen_const =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> interesting.(i mod Array.length interesting)) nat);
        (2, float);
      ])

let gen_fun =
  QCheck.Gen.oneofl
    [ Expr.Sin; Expr.Cos; Expr.Exp; Expr.Ln; Expr.Sqrt; Expr.Abs; Expr.Tanh ]

let gen_cmp = QCheck.Gen.oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]

let gen_expr ~cur ~hist =
  let open QCheck.Gen in
  let leaf =
    let vars = Array.of_list (List.map Expr.var (cur @ hist)) in
    frequency
      [
        (2, map Expr.const gen_const);
        (3, map (fun i -> vars.(i mod Array.length vars)) nat);
      ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        let cond =
          (* one level of boolean structure over random comparisons *)
          let cmp = map3 (fun c a b -> Expr.Cmp (c, a, b)) gen_cmp sub sub in
          frequency
            [
              (4, cmp);
              (1, map2 (fun a b -> Expr.And (a, b)) cmp cmp);
              (1, map2 (fun a b -> Expr.Or (a, b)) cmp cmp);
              (1, map (fun a -> Expr.Not a) cmp);
            ]
        in
        frequency
          [
            (2, leaf);
            (2, map2 Expr.( + ) sub sub);
            (2, map2 Expr.( - ) sub sub);
            (2, map2 Expr.( * ) sub sub);
            (1, map2 Expr.( / ) sub sub);
            (1, map Expr.neg sub);
            (1, map2 (fun f a -> Expr.App (f, a)) gen_fun sub);
            (1, map3 (fun c a b -> Expr.Cond (c, a, b)) cond sub sub);
          ])
    8

let gen_program =
  let open QCheck.Gen in
  int_range 1 5 >>= fun n_assign ->
  let rec build i acc =
    if i >= n_assign then return (List.rev acc)
    else
      let prior = List.init i target_var in
      let cur = input_vars @ prior in
      let hist =
        List.concat_map
          (fun v -> [ Expr.delayed v 1; Expr.delayed v 2 ])
          (input_vars @ prior @ [ target_var i ])
      in
      gen_expr ~cur ~hist >>= fun e ->
      build (i + 1) ({ Sfprogram.target = target_var i; expr = e } :: acc)
  in
  build 0 [] >|= fun assignments ->
  Sfprogram.make ~name:"rand" ~inputs
    ~outputs:[ target_var (List.length assignments - 1) ]
    ~assignments ~dt:1.0

let gen_stimulus_value =
  QCheck.Gen.(
    frequency
      [
        (6, gen_const);
        (1, return nan);
        (1, return infinity);
        (1, return neg_infinity);
      ])

(* A generated program with 24 steps of stimuli for its two inputs. *)
let arb_of gen =
  QCheck.make
    ~print:(fun (p, _) -> Format.asprintf "%a" Sfprogram.pp p)
    QCheck.Gen.(
      pair gen (array_size (return 24) (pair gen_stimulus_value gen_stimulus_value)))

let arb_case = arb_of gen_program

(* Replace every constant (including those inside conditions) so the
   perturbed program shares the original's shape but no values. *)
let rec perturb_expr e =
  match e with
  | Expr.Const c -> Expr.Const ((c *. 1.5) +. 0.25)
  | Expr.Var _ -> e
  | Expr.Neg a -> Expr.Neg (perturb_expr a)
  | Expr.Add (a, b) -> Expr.Add (perturb_expr a, perturb_expr b)
  | Expr.Sub (a, b) -> Expr.Sub (perturb_expr a, perturb_expr b)
  | Expr.Mul (a, b) -> Expr.Mul (perturb_expr a, perturb_expr b)
  | Expr.Div (a, b) -> Expr.Div (perturb_expr a, perturb_expr b)
  | Expr.Ddt a -> Expr.Ddt (perturb_expr a)
  | Expr.Idt a -> Expr.Idt (perturb_expr a)
  | Expr.App (f, a) -> Expr.App (f, perturb_expr a)
  | Expr.Cond (c, a, b) ->
      Expr.Cond (perturb_cond c, perturb_expr a, perturb_expr b)

and perturb_cond = function
  | Expr.Cmp (c, a, b) -> Expr.Cmp (c, perturb_expr a, perturb_expr b)
  | Expr.And (a, b) -> Expr.And (perturb_cond a, perturb_cond b)
  | Expr.Or (a, b) -> Expr.Or (perturb_cond a, perturb_cond b)
  | Expr.Not a -> Expr.Not (perturb_cond a)

let perturb (p : Sfprogram.t) =
  {
    p with
    Sfprogram.assignments =
      List.map
        (fun (a : Sfprogram.assignment) ->
          { a with Sfprogram.expr = perturb_expr a.Sfprogram.expr })
        p.Sfprogram.assignments;
  }

let targets (p : Sfprogram.t) =
  List.map (fun (a : Sfprogram.assignment) -> a.Sfprogram.target)
    p.Sfprogram.assignments

(* Step the reference and [others] in lock-step and compare, after
   every step, each runner's [vars] with the reference's values bit for
   bit — stricter than comparing output traces, since CSE,
   dead-register elimination, row fusion and slicing must not disturb
   intermediates. *)
let lockstep label stims reference others =
  let bits = Int64.bits_of_float in
  Array.iteri
    (fun t (a, b) ->
      Reference.step reference ~inputs:[| a; b |];
      List.iter
        (fun (name, r, vars) ->
          Sfprogram.Runner.step r ~inputs:[| a; b |];
          List.iter
            (fun v ->
              let x = Sfprogram.Runner.read r v
              and y = Reference.read reference v in
              if bits x <> bits y then
                QCheck.Test.fail_reportf
                  "%s: %s, step %d, %s: %h vs reference %h"
                  label name t (Expr.var_name v) x y)
            vars)
        others)
    stims

let live_targets p =
  let dead = Sfprogram.dead_targets p in
  List.filter (fun v -> not (List.mem v dead)) (targets p)

(* Entry [i] of each table is the input at step [i]; entry 0 is never
   loaded, the runner is reset before step 1. *)
let tables_of stims =
  let column f = Array.append [| nan |] (Array.map f stims) in
  [| column fst; column snd |]

exception Abort

(* Runners of [p2] rebound from a runner of [p] that has just run over
   [tables]: once to completion, once aborted by its observer after
   step 5. [Runner.rebind] reuses the register file, so each must carry
   nothing over: a run of it, table-fed or stepped under an observer
   reading every [live] quantity, gives a fresh runner's trace (times
   and values), counter deltas and reads at every step, bit for bit. *)
let rebound_runners label ~dt ~tables ~live p p2 =
  let nsteps = Array.length tables.(0) - 1 in
  let t_stop = float_of_int nsteps *. dt in
  let sources = Array.map (fun a -> Sfprogram.Runner.Table a) tables in
  let bits = Int64.bits_of_float in
  let run ?observe r =
    let t0 = Obs.Counter.value c_ticks and o0 = Obs.Counter.value c_ops in
    let tr = Trace.create () in
    Sfprogram.Runner.run_into r ~sources ~t_stop ?observe tr;
    ( List.init (Trace.length tr) (fun i ->
          (bits (Trace.time tr i), bits (Trace.value tr i))),
      Obs.Counter.value c_ticks - t0,
      Obs.Counter.value c_ops - o0 )
  in
  let observed r =
    let reads = ref [] in
    let record _ read =
      reads := List.map (fun v -> bits (read v)) live :: !reads
    in
    let result = run ~observe:record r in
    (result, !reads)
  in
  let fresh = run (Sfprogram.Runner.create p2)
  and fresh_observed = observed (Sfprogram.Runner.create p2) in
  List.map
    (fun (name, abort) ->
      let r = Sfprogram.Runner.create p in
      let stop t _ = if t >= 5.0 *. dt then raise Abort in
      (match run ?observe:(if abort then Some stop else None) r with
      | _ -> ()
      | exception Abort -> ());
      match Sfprogram.Runner.rebind r p2 with
      | None ->
          QCheck.Test.fail_reportf
            "%s: rebind refused a same-shape program:@ %a" label Sfprogram.pp
            p2
      | Some r2 ->
          if run r2 <> fresh then
            QCheck.Test.fail_reportf
              "%s, rebound %s: table run differs from a fresh runner's" label
              name;
          if observed r2 <> fresh_observed then
            QCheck.Test.fail_reportf
              "%s, rebound %s: observed run differs from a fresh runner's"
              label name;
          (name, r2))
    [ ("after a run", false); ("after an aborted run", true) ]

(* A runner without [~reads] evaluates only the live assignments;
   declaring every target makes it evaluate them all. Sliced and full
   runners, and the runners rebound to the constant-perturbed sibling,
   must agree with the reference on every target they compute. *)
let check_engines (p, stims) =
  let all = targets p and live = live_targets p in
  let create reads q = Sfprogram.Runner.create ~reads q in
  lockstep "program" stims (Reference.create p)
    [ ("full", create all p, all); ("sliced", create [] p, live) ];
  (* The sweep replay path: a runner of [p] rebound to [p2]. *)
  let p2 = perturb p in
  List.iter
    (fun (name, r) ->
      Sfprogram.Runner.reset r;
      lockstep "perturbed" stims (Reference.create p2)
        [ ("rebound " ^ name, r, live) ])
    (rebound_runners "program" ~dt:1.0 ~tables:(tables_of stims) ~live p p2)

let prop_random_programs =
  QCheck.Test.make
    ~name:"random programs: reference = bytecode = rebound template"
    ~count:300 arb_case (fun case ->
      check_engines case;
      true)

(* ---- Sum-of-products rows ---- *)

(* Left-associated sums of 1-8 terms, the shape the bytecode fuses into
   one [Lin] instruction: each term is a product of two leaves, a plain
   leaf, or a product from a pool every row may read, so CSE keeps
   some products out of the rows. Leaves are [interesting] constants,
   inputs, earlier targets and delayed samples, the target's own
   history included. Raw constructors keep the shape exactly as
   generated (the smart ones fold [0 * x] and [1 * x]). *)
let gen_row_program =
  let open QCheck.Gen in
  let const_leaf =
    map (fun i -> Expr.Const interesting.(i mod Array.length interesting)) nat
  in
  let pick xs = map (fun i -> xs.(i mod Array.length xs)) nat in
  let mul a b = Expr.Mul (a, b) in
  let shared_leaf =
    frequency
      [
        (1, const_leaf);
        ( 2,
          pick
            (Array.of_list
               (List.map Expr.var
                  (input_vars @ List.map (fun v -> Expr.delayed v 1) input_vars)))
        );
      ]
  in
  list_size (int_range 1 3) (map2 mul shared_leaf shared_leaf) >>= fun shared ->
  let shared = Array.of_list shared in
  int_range 1 4 >>= fun n_assign ->
  let rec build i acc =
    if i >= n_assign then return (List.rev acc)
    else
      let prior = List.init i target_var in
      let hist =
        List.concat_map
          (fun v -> [ Expr.delayed v 1; Expr.delayed v 2 ])
          (input_vars @ prior @ [ target_var i ])
      in
      let leaf =
        frequency
          [
            (2, const_leaf);
            (3, pick (Array.of_list (List.map Expr.var (input_vars @ prior @ hist))));
          ]
      in
      let term =
        frequency [ (6, map2 mul leaf leaf); (2, leaf); (2, pick shared) ]
      in
      int_range 1 8 >>= fun n ->
      list_repeat n term >>= fun terms ->
      let e =
        List.fold_left (fun a b -> Expr.Add (a, b)) (List.hd terms) (List.tl terms)
      in
      build (i + 1) ({ Sfprogram.target = target_var i; expr = e } :: acc)
  in
  build 0 [] >|= fun assignments ->
  Sfprogram.make ~name:"rows" ~inputs
    ~outputs:[ target_var (List.length assignments - 1) ]
    ~assignments ~dt:1.0

let arb_row_case = arb_of gen_row_program

(* The abstract interpreter, given the box the stimuli span, must
   contain every value the concrete run computes. *)
let check_intervals (p, stims) =
  let box f =
    Array.fold_left (fun acc s -> Absint.join acc (Absint.const (f s)))
      (Absint.const (f stims.(0))) stims
  in
  let a =
    Absint.analyze ~inputs:(List.combine inputs [ box fst; box snd ]) p
  in
  let r = Reference.create p in
  Array.iteri
    (fun t (u0, u1) ->
      Reference.step r ~inputs:[| u0; u1 |];
      List.iter
        (fun v ->
          let x = Reference.read r v in
          let itv = List.assoc v a.Absint.a_targets in
          if not (Absint.mem x itv) then
            QCheck.Test.fail_reportf "step %d, %s: %h outside %s" t
              (Expr.var_name v) x (Absint.to_string itv))
        (targets p))
    stims

(* "tree" in the names below is the reference stepper, which evaluates
   the expression trees. *)
let prop_rows =
  QCheck.Test.make
    ~name:"sum-of-products rows: tree = bytecode = rebound template, absint sound"
    ~count:300 arb_row_case (fun case ->
      check_engines case;
      check_intervals case;
      true)

(* ---- Runs of three-product rows ---- *)

(* Runs of 1-30 assignments whose right-hand side is a row of exactly
   three products, the RC-ladder shape the bytecode steps as one
   block: later rows read earlier targets of the run, and rows read
   histories, their own target's included. A few assignments break
   the run: a row with a plain term, a conditional over two rows (a
   [Cmp] and a [Sel]), or a row nested as the first factor of another
   (its target is then a temporary). Factors may also be shared
   subexpressions — a product, a conditional, a row — which CSE
   computes once and keeps in a register across rows; a row reading
   one for the last time may reuse that register for its own target.
   Leaves are [interesting] constants, so NaN, infinities and signed
   zeros flow through every product and sum. *)
let gen_run_program =
  let open QCheck.Gen in
  let const_leaf =
    map (fun i -> Expr.Const interesting.(i mod Array.length interesting)) nat
  in
  let pick xs = map (fun i -> xs.(i mod Array.length xs)) nat in
  let mul a b = Expr.Mul (a, b) in
  let row a b c = Expr.Add (Expr.Add (a, b), c) in
  let input_leaf =
    frequency
      [
        (1, const_leaf);
        ( 3,
          pick
            (Array.of_list
               (List.map Expr.var
                  (input_vars @ List.map (fun v -> Expr.delayed v 1) input_vars)))
        );
      ]
  in
  let product leaf = map2 mul leaf leaf in
  let shared =
    frequency
      [
        (1, product input_leaf);
        ( 1,
          map3
            (fun c a b -> Expr.Cond (Expr.Cmp (c, a, b), a, b))
            gen_cmp input_leaf input_leaf );
        ( 1,
          map3 row (product input_leaf) (product input_leaf)
            (product input_leaf) );
      ]
  in
  list_size (int_range 1 4) shared >>= fun shared ->
  let shared = Array.of_list shared in
  int_range 1 30 >>= fun n_assign ->
  let rec build i acc =
    if i >= n_assign then return (List.rev acc)
    else
      let prior = List.init i target_var in
      let hist =
        List.concat_map
          (fun v -> [ Expr.delayed v 1; Expr.delayed v 2 ])
          (input_vars @ prior @ [ target_var i ])
      in
      let leaf =
        frequency
          [
            (2, const_leaf);
            (5, pick (Array.of_list (List.map Expr.var (input_vars @ prior @ hist))));
            (2, pick shared);
          ]
      in
      let ladder = map3 row (product leaf) (product leaf) (product leaf) in
      let rhs =
        frequency
          [
            (12, ladder);
            (1, map3 row (product leaf) leaf (product leaf));
            ( 1,
              map3
                (fun (c, a, b) x y -> Expr.Cond (Expr.Cmp (c, a, b), x, y))
                (triple gen_cmp leaf leaf) ladder ladder );
            ( 2,
              map3
                (fun inner (k, b) c -> row (mul inner k) b c)
                ladder
                (pair leaf (product leaf))
                (product leaf) );
          ]
      in
      rhs >>= fun e ->
      build (i + 1) ({ Sfprogram.target = target_var i; expr = e } :: acc)
  in
  build 0 [] >|= fun assignments ->
  Sfprogram.make ~name:"runs" ~inputs
    ~outputs:[ target_var (List.length assignments - 1) ]
    ~assignments ~dt:1.0

let prop_row_runs =
  QCheck.Test.make
    ~name:"runs of three-product rows: tree = bytecode = rebound template"
    ~count:300 (arb_of gen_run_program)
    (fun case ->
      check_engines case;
      true)

(* ---- Lazy conditionals ---- *)

(* Conditionals over one comparison, the shape the bytecode runs as a
   [Pick]. An arm is a product, a row of products, a nested conditional
   (two levels deep at most), a plain leaf, or a product from a pool
   every assignment may read: CSE computes a pool product once, so an
   arm that is one stays eager, and a row holding one keeps it outside
   the arm. The compared operands and the arms read inputs, earlier
   targets and histories, the target's own included, and [interesting]
   constants, so ±0, ±inf and NaN reach the comparison (the stimuli
   carry them too). A conditional may also be the first factor of a
   row, its target then a temporary. Raw constructors keep the shapes
   as generated. *)
let gen_cond_program =
  let open QCheck.Gen in
  let const_leaf =
    map (fun i -> Expr.Const interesting.(i mod Array.length interesting)) nat
  in
  let pick xs = map (fun i -> xs.(i mod Array.length xs)) nat in
  let mul a b = Expr.Mul (a, b) in
  let sum = function
    | t :: ts -> List.fold_left (fun a b -> Expr.Add (a, b)) t ts
    | [] -> invalid_arg "sum"
  in
  (* no constants: literals never unify, so these products are shared *)
  let input_leaf =
    pick
      (Array.of_list
         (List.map Expr.var
            (input_vars @ List.map (fun v -> Expr.delayed v 1) input_vars)))
  in
  list_size (int_range 1 3) (map2 mul input_leaf input_leaf) >>= fun shared ->
  let shared = Array.of_list shared in
  int_range 1 5 >>= fun n_assign ->
  let rec build i acc =
    if i >= n_assign then return (List.rev acc)
    else
      let prior = List.init i target_var in
      let hist =
        List.concat_map
          (fun v -> [ Expr.delayed v 1; Expr.delayed v 2 ])
          (input_vars @ prior @ [ target_var i ])
      in
      let leaf =
        frequency
          [
            (2, const_leaf);
            (5, pick (Array.of_list (List.map Expr.var (input_vars @ prior @ hist))));
          ]
      in
      let product = map2 mul leaf leaf in
      let row =
        int_range 2 4 >>= fun n ->
        list_repeat n (frequency [ (4, product); (1, leaf); (1, pick shared) ])
        >|= sum
      in
      let rec cond depth =
        map3
          (fun c (a, b) (x, y) -> Expr.Cond (Expr.Cmp (c, a, b), x, y))
          gen_cmp (pair leaf leaf)
          (pair (arm depth) (arm depth))
      and arm depth =
        frequency
          ([ (3, product); (3, row); (1, pick shared); (1, leaf) ]
          @ if depth > 0 then [ (2, cond (depth - 1)) ] else [])
      in
      let rhs =
        frequency
          [
            (4, cond 2);
            (1, map3 (fun c k x -> sum [ mul c k; x ]) (cond 1) leaf product);
          ]
      in
      rhs >>= fun e ->
      build (i + 1) ({ Sfprogram.target = target_var i; expr = e } :: acc)
  in
  build 0 [] >|= fun assignments ->
  Sfprogram.make ~name:"conds" ~inputs
    ~outputs:[ target_var (List.length assignments - 1) ]
    ~assignments ~dt:1.0

(* ---- The table-fed loop ---- *)

(* [run_into] with every source a [Table] and no observer is one
   [Compile.run] call; a [Fn] source or an observer takes the stepped
   loop of [Compile.exec] calls. Over the same samples all three must
   record the same trace, bit for bit, and advance the tick and op
   counters by the same amounts. *)
(* [tables.(k).(i)] is input [k] at step [i]; the [Fn] form reads the
   same entry back from the step time. *)
let table_vs_stepped label r ~dt ~tables =
  let nsteps = Array.length tables.(0) - 1 in
  let t_stop = float_of_int nsteps *. dt in
  let run ?observe sources =
    let t0 = Obs.Counter.value c_ticks and o0 = Obs.Counter.value c_ops in
    let tr = Trace.create () in
    Sfprogram.Runner.run_into r ~sources ~t_stop ?observe tr;
    (tr, Obs.Counter.value c_ticks - t0, Obs.Counter.value c_ops - o0)
  in
  let table = Array.map (fun a -> Sfprogram.Runner.Table a) tables in
  let fn =
    Array.map
      (fun a ->
        Sfprogram.Runner.Fn (fun t -> a.(int_of_float (Float.round (t /. dt)))))
      tables
  in
  let bits = Int64.bits_of_float in
  let ((expected, ticks, ops) as table_run) = run table in
  List.iter
    (fun (name, (tr, t, o)) ->
      if Trace.length tr <> Trace.length expected then
        QCheck.Test.fail_reportf "%s, %s: %d samples, table run %d" label name
          (Trace.length tr) (Trace.length expected);
      for i = 0 to Trace.length tr - 1 do
        if
          bits (Trace.time tr i) <> bits (Trace.time expected i)
          || bits (Trace.value tr i) <> bits (Trace.value expected i)
        then
          QCheck.Test.fail_reportf
            "%s, %s: sample %d is (%h, %h), table run (%h, %h)" label name i
            (Trace.time tr i) (Trace.value tr i) (Trace.time expected i)
            (Trace.value expected i)
      done;
      if t <> ticks || o <> ops then
        QCheck.Test.fail_reportf
          "%s, %s: counters +%d ticks +%d ops, table run +%d +%d" label name t
          o ticks ops)
    [
      ("table run", table_run);
      ("stepped Fn run", run fn);
      ("observed table run", run ~observe:(fun _ _ -> ()) table);
    ]

(* Full and sliced runners of [p], and runners of it rebound to the
   constant-perturbed sibling, each run both ways. *)
let check_table_runs ~dt ~tables p =
  let create reads q = Sfprogram.Runner.create ~reads q in
  table_vs_stepped "full" (create (targets p) p) ~dt ~tables;
  table_vs_stepped "sliced" (create [] p) ~dt ~tables;
  List.iter
    (fun (name, r) -> table_vs_stepped ("rebound " ^ name) r ~dt ~tables)
    (rebound_runners "tables" ~dt ~tables ~live:(live_targets p) p
       (perturb p))

let prop_table_runs =
  QCheck.Test.make ~name:"table run = stepped run" ~count:300
    (arb_of
       (QCheck.Gen.oneof [ gen_program; gen_row_program; gen_run_program ]))
    (fun (p, stims) ->
      check_table_runs ~dt:1.0 ~tables:(tables_of stims) p;
      true)

(* Each generated conditional program through the engines and both
   run loops. *)
let prop_conditionals =
  QCheck.Test.make
    ~name:"conditional arms: reference = bytecode = rebound template"
    ~count:300 (arb_of gen_cond_program)
    (fun ((p, stims) as case) ->
      check_engines case;
      check_table_runs ~dt:1.0 ~tables:(tables_of stims) p;
      true)

let test_table_runs_circuits () =
  List.iter
    (fun (tc : Circuits.testcase) ->
      let dt = 1e-6 in
      let p = (Flow.abstract_testcase tc ~dt).Flow.program in
      let tables =
        Array.map
          (fun f -> Stimulus.sample f ~dt ~n:2001)
          (Wrap.stimuli_for p tc.Circuits.stimuli)
      in
      check_table_runs ~dt ~tables p)
    (Circuits.all_paper_cases ())

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine-diff"
    [
      ( "circuits",
        [
          Alcotest.test_case "paper circuits" `Quick test_paper_circuits;
          Alcotest.test_case "ladder, rlc, rectifier" `Quick
            test_more_circuits;
          Alcotest.test_case "non-finite stimuli" `Quick
            test_non_finite_stimulus;
        ] );
      ( "tables",
        [
          Alcotest.test_case "paper circuits: table run = stepped run" `Quick
            test_table_runs_circuits;
        ] );
      ( "examples",
        [ Alcotest.test_case "example models" `Quick test_example_models ] );
      ( "property",
        qt
          [
            prop_random_programs;
            prop_rows;
            prop_row_runs;
            prop_table_runs;
            prop_conditionals;
          ]
      );
    ]
