(* Tests for the abstract interpreter: the soundness property (every
   concrete trace value of a random program lies inside the proven
   interval of its target, non-finite values only where the flags
   allow them), the step-accurate MUST proof over the bytecode
   (whenever [prove_unhealthy_compiled] claims a step, the concrete run
   really trips the watchdog there). *)

module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile
module Absint = Amsvp_analysis.Absint

(* ---- random signal-flow programs ----

   Shape: one input [u], targets [x0 .. x(k-1)] assigned in order.
   Assignment [i] may read [u], earlier targets of the same step, and
   1- or 2-delayed samples of any target — exactly the reference set
   {!Sfprogram.make} validates, so generation never raises. *)

let gen_const =
  QCheck.Gen.oneofl
    [ 0.0; 1.0; -1.0; 0.5; -0.75; 2.0; 1.0e-3; -1.0e-3; 12.5; 1.0e3;
      -3.0e3; 1.0e10; -1.0e10; 0.1 ]

let gen_fun =
  QCheck.Gen.oneofl
    [ Expr.Sin; Expr.Cos; Expr.Exp; Expr.Ln; Expr.Sqrt; Expr.Abs; Expr.Tanh ]

(* [i] is the index of the assignment under construction; [k] the
   total target count. *)
let gen_expr ~i ~k =
  let open QCheck.Gen in
  let target j = Expr.signal (Printf.sprintf "x%d" j) in
  let leaf =
    frequency
      [
        (3, map Expr.const gen_const);
        (2, return (Expr.var (Expr.signal "u")));
        ( (if i > 0 then 2 else 0),
          map (fun j -> Expr.var (target (j mod max 1 i))) (int_bound 7) );
        ( 2,
          map2
            (fun j d -> Expr.var (Expr.delayed (target (j mod k)) (1 + (d mod 2))))
            (int_bound 7) (int_bound 1) );
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map2 Expr.( + ) (self (depth - 1)) (self (depth - 1)));
            (1, map2 Expr.( - ) (self (depth - 1)) (self (depth - 1)));
            (2, map2 Expr.( * ) (self (depth - 1)) (self (depth - 1)));
            (1, map2 Expr.( / ) (self (depth - 1)) (self (depth - 1)));
            (1, map Expr.neg (self (depth - 1)));
            (1, map2 (fun f a -> Expr.App (f, a)) gen_fun (self (depth - 1)));
          ])
    2

let gen_program =
  let open QCheck.Gen in
  int_range 1 4 >>= fun k ->
  let rec exprs i acc =
    if i = k then return (List.rev acc)
    else gen_expr ~i ~k >>= fun e -> exprs (i + 1) (e :: acc)
  in
  exprs 0 [] >|= fun es ->
  let assignments =
    List.mapi
      (fun i e ->
        { Sfprogram.target = Expr.signal (Printf.sprintf "x%d" i); expr = e })
      es
  in
  Sfprogram.make ~name:"rand" ~inputs:[ "u" ]
    ~outputs:[ Expr.signal (Printf.sprintf "x%d" (k - 1)) ]
    ~assignments ~dt:1e-6

(* A fixed input sequence inside the default [-1, 1] box. *)
let gen_stimulus = QCheck.Gen.(array_size (return 48) (float_range (-1.0) 1.0))

let gen_case =
  QCheck.Gen.pair gen_program gen_stimulus
  |> QCheck.make ~print:(fun (p, us) ->
         Format.asprintf "%a@.inputs: %s" Sfprogram.pp p
           (String.concat ", "
              (Array.to_list (Array.map string_of_float us))))

let nsteps = 48

(* Run [p] concretely for [nsteps], returning per-step target values
   (in assignment order) and the output trace. Every target is declared
   read, so the runner evaluates the whole program. *)
let concrete_trace p (us : float array) =
  let targets = List.map (fun a -> a.Sfprogram.target) p.Sfprogram.assignments in
  let r = Sfprogram.Runner.create ~reads:targets p in
  let rows = ref [] in
  for k = 0 to nsteps - 1 do
    Sfprogram.Runner.step r ~inputs:[| us.(k) |];
    let row = List.map (fun t -> (t, Sfprogram.Runner.read r t)) targets in
    rows := row :: !rows
  done;
  List.rev !rows

let itv_of tgt (a : Absint.analysis) =
  match List.assoc_opt tgt a.Absint.a_targets with
  | Some i -> i
  | None -> Alcotest.failf "no interval for %s" (Expr.var_name tgt)

(* Soundness: every value a concrete run produces is inside the proven
   interval of its target — NaN and infinities included, which is what
   [Absint.mem] checks (a non-finite value is a member only when the
   matching flag is set). *)
let prop_analysis_sound =
  QCheck.Test.make ~name:"analyze is sound on concrete traces" ~count:300
    gen_case (fun (p, us) ->
      let a = Absint.analyze p in
      let rows = concrete_trace p us in
      List.iter
        (List.iter (fun (tgt, v) ->
             let itv = itv_of tgt a in
             if not (Absint.mem v itv) then
               QCheck.Test.fail_reportf
                 "%s produced %h outside its proven interval %s"
                 (Expr.var_name tgt) v (Absint.to_string itv)))
        rows;
      (* the output interval additionally covers the initial 0 sample *)
      let out = List.hd p.Sfprogram.outputs in
      (match List.assoc_opt out a.Absint.a_outputs with
      | Some itv when not (Absint.mem 0.0 itv) ->
          QCheck.Test.fail_reportf
            "output interval %s misses the initial sample"
            (Absint.to_string itv)
      | _ -> ());
      true)

(* A sibling of [p] with every constant scaled: the same shape, so the
   artifact of [p] rebinds onto it — a second member of a sweep box. *)
let rescale (p : Sfprogram.t) =
  let rec expr e =
    match e with
    | Expr.Const c -> Expr.Const (c *. 1.25)
    | Expr.Var _ -> e
    | Expr.Neg a -> Expr.Neg (expr a)
    | Expr.Add (a, b) -> Expr.Add (expr a, expr b)
    | Expr.Sub (a, b) -> Expr.Sub (expr a, expr b)
    | Expr.Mul (a, b) -> Expr.Mul (expr a, expr b)
    | Expr.Div (a, b) -> Expr.Div (expr a, expr b)
    | Expr.Ddt a -> Expr.Ddt (expr a)
    | Expr.Idt a -> Expr.Idt (expr a)
    | Expr.App (f, a) -> Expr.App (f, expr a)
    | Expr.Cond (c, a, b) -> Expr.Cond (cond c, expr a, expr b)
  and cond = function
    | Expr.Cmp (op, a, b) -> Expr.Cmp (op, expr a, expr b)
    | Expr.And (a, b) -> Expr.And (cond a, cond b)
    | Expr.Or (a, b) -> Expr.Or (cond a, cond b)
    | Expr.Not a -> Expr.Not (cond a)
  in
  {
    p with
    Sfprogram.assignments =
      List.map
        (fun (a : Sfprogram.assignment) -> { a with Sfprogram.expr = expr a.expr })
        p.Sfprogram.assignments;
  }

(* MUST-proof soundness: when [prove_unhealthy_compiled] (fed the exact
   singleton stimulus) claims step [b], the concrete run is really
   unhealthy at step [b]. Checked as [Prune] uses the proof: once over
   the artifact's own pool, and once over the hull of two rebound
   pools, where the claim must hold for both programs. *)
let prop_must_proof_sound =
  QCheck.Test.make ~name:"prove_unhealthy never claims a healthy run"
    ~count:300 gen_case (fun (p, us) ->
      let amplitude = 1.0e6 in
      let inputs k = [| Absint.const us.(min (k - 1) (nsteps - 1)) |] in
      let prove ?pool art =
        Absint.prove_unhealthy_compiled ~max_steps:nsteps ~amplitude ?pool
          ~inputs p art
      in
      let check_claim q = function
        | None -> ()
        | Some bad ->
            let rows = concrete_trace q us in
            let out = List.hd q.Sfprogram.outputs in
            let v = List.assoc out (List.nth rows (bad.Absint.b_step - 1)) in
            let tripped =
              match bad.Absint.b_kind with
              | `Nonfinite -> not (Float.is_finite v)
              | `Amplitude ->
                  (not (Float.is_finite v)) || Float.abs v > amplitude
            in
            if not tripped then
              QCheck.Test.fail_reportf
                "claimed %s at step %d but the concrete output of@ %a@ is %h"
                (match bad.Absint.b_kind with
                | `Nonfinite -> "nonfinite"
                | `Amplitude -> "amplitude")
                bad.Absint.b_step Sfprogram.pp q v
      in
      let art = Sfprogram.compile p in
      check_claim p (prove art);
      let p2 = rescale p in
      (match Sfprogram.rebind_compiled art p2 with
      | None -> QCheck.Test.fail_report "a rescaled program did not rebind"
      | Some art2 ->
          let pool =
            Array.map2
              (fun a b -> Absint.join (Absint.const a) (Absint.const b))
              (Compile.const_pool art) (Compile.const_pool art2)
          in
          let claim = prove ~pool art in
          check_claim p claim;
          check_claim p2 claim);
      true)

(* ---- domain unit checks ---- *)

let test_domain_basics () =
  let open Absint in
  Alcotest.(check bool) "const 1 is singleton" true
    (singleton (const 1.0) = Some 1.0);
  Alcotest.(check bool) "nan const has flag" true (const Float.nan).nan;
  Alcotest.(check bool) "div by zero-crossing may blow up" true
    (may_non_finite (div (const 1.0) (interval (-1.0) 1.0)));
  Alcotest.(check bool) "div by zero is definitely non-finite" true
    (definitely_non_finite (div (const 1.0) (const 0.0)));
  Alcotest.(check bool) "join covers both" true
    (let j = join (const 1.0) (const 3.0) in
     mem 1.0 j && mem 3.0 j && mem 2.0 j);
  Alcotest.(check bool) "widen is extensive" true
    (leq (join (const 1.0) (const 3.0))
       (widen (const 1.0) (join (const 1.0) (const 3.0))));
  (match definitely_unhealthy ~amplitude:10.0 (interval 20.0 30.0) with
  | Some `Amplitude -> ()
  | _ -> Alcotest.fail "amplitude breach not proven");
  (match definitely_unhealthy ~amplitude:10.0 (interval 5.0 30.0) with
  | None -> ()
  | Some _ -> Alcotest.fail "healthy value still possible — nothing provable");
  Alcotest.(check bool) "mem respects flags" false
    (mem Float.infinity (interval 0.0 1.0))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "absint"
    [
      ("domain",
        [
          Alcotest.test_case "basics" `Quick test_domain_basics;
        ] );
      ( "soundness",
        qt [ prop_analysis_sound; prop_must_proof_sound ] );
    ]
