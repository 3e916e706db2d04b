(* Unit and property tests for the symbolic expression layer. *)

let check_float = Alcotest.(check (float 1e-9))

let x = Expr.signal "x"
let y = Expr.signal "y"
let vx = Expr.var x
let vy = Expr.var y

let env_of bindings v =
  match List.find_opt (fun (w, _) -> Expr.equal_var v w) bindings with
  | Some (_, value) -> value
  | None -> Alcotest.failf "unbound variable %s" (Expr.var_name v)

(* Construction and printing *)

let test_var_names () =
  Alcotest.(check string) "potential" "V(out,gnd)"
    (Expr.var_name (Expr.potential "out" "gnd"));
  Alcotest.(check string) "flow" "I(r1)" (Expr.var_name (Expr.flow "r1" ""));
  Alcotest.(check string) "delayed" "V(out,gnd)@-1"
    (Expr.var_name (Expr.delayed (Expr.potential "out" "gnd") 1));
  Alcotest.(check string) "c name" "V_out_gnd_m2"
    (Expr.var_c_name (Expr.delayed (Expr.potential "out" "gnd") 2))

(* Every form of the one access parser behind --out, --probe, the sweep
   spec's output and signal-flow program files. *)
let test_access_forms () =
  let ok s expected =
    match Expr.access_of_string s with
    | Ok v -> Alcotest.(check string) s (Expr.var_name expected) (Expr.var_name v)
    | Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  ok "V(out,gnd)" (Expr.potential "out" "gnd");
  ok " V( a , b ) " (Expr.potential "a" "b");
  ok "V(out)" (Expr.potential "out" "gnd");
  ok "I(r1,out)" (Expr.flow "r1" "out");
  ok "I(r1)" (Expr.flow "r1" "");
  ok "vout" (Expr.signal "vout");
  List.iter
    (fun s ->
      match Expr.access_of_string s with
      | Ok v -> Alcotest.failf "%S accepted as %s" s (Expr.var_name v)
      | Error _ -> ())
    [ ""; "  "; "V()"; "V(a,)"; "I(,b)"; "V(a,b,c)"; "V(a"; "I(a" ]

let test_pp_precedence () =
  let e = Expr.Mul (Expr.Add (vx, vy), Expr.const 2.0) in
  Alcotest.(check string) "parens kept" "(x + y) * 2" (Expr.to_string e);
  let e2 = Expr.Add (Expr.Mul (vx, vy), Expr.const 2.0) in
  Alcotest.(check string) "no spurious parens" "x * y + 2" (Expr.to_string e2)

(* Evaluation *)

let test_eval_arith () =
  let e = Expr.((vx + vy) * (vx - vy)) in
  let env = env_of [ (x, 5.0); (y, 3.0) ] in
  check_float "difference of squares" 16.0 (Expr.eval env e)

let test_eval_cond () =
  let e = Expr.Cond (Expr.Cmp (Expr.Ge, vx, Expr.const 0.0), vx, Expr.Neg vx) in
  check_float "abs pos" 2.5 (Expr.eval (env_of [ (x, 2.5) ]) e);
  check_float "abs neg" 2.5 (Expr.eval (env_of [ (x, -2.5) ]) e)

let test_eval_ddt_rejected () =
  Alcotest.check_raises "ddt rejected"
    (Expr.Continuous_time "Expr.eval: ddt/idt cannot be evaluated pointwise")
    (fun () -> ignore (Expr.eval (fun _ -> 0.0) (Expr.Ddt vx)))

let test_discretize_idt_rejected () =
  Alcotest.check_raises "idt rejected"
    (Expr.Continuous_time
       "Expr.discretize: idt must be removed with extract_idt")
    (fun () -> ignore (Expr.discretize ~dt:1e-6 (Expr.Ddt (Expr.Idt vx))))

(* Simplification *)

let test_simplify_neutral () =
  let e = Expr.Add (Expr.Mul (Expr.one, vx), Expr.zero) in
  Alcotest.(check string) "x*1+0 = x" "x" (Expr.to_string (Expr.simplify e));
  let e2 = Expr.Mul (Expr.zero, Expr.Add (vx, vy)) in
  Alcotest.(check string) "0*(x+y) = 0" "0" (Expr.to_string (Expr.simplify e2))

let test_simplify_constants () =
  let e = Expr.Div (Expr.const 7.0, Expr.Add (Expr.const 2.0, Expr.const 1.5)) in
  check_float "constant folding" 2.0 (Expr.eval (fun _ -> nan) (Expr.simplify e))

(* Linear form *)

let test_linear_form_basic () =
  let e = Expr.(scale 2.0 vx + scale 3.0 vy + const 4.0 + vx) in
  match Expr.linear_form e with
  | None -> Alcotest.fail "expected linear"
  | Some (items, k) ->
      check_float "constant" 4.0 k;
      let coeff v =
        match List.find_opt (fun (w, _) -> Expr.equal_var v w) items with
        | Some (_, c) -> c
        | None -> 0.0
      in
      check_float "x merged" 3.0 (coeff x);
      check_float "y" 3.0 (coeff y)

let test_linear_form_nonlinear () =
  Alcotest.(check bool) "x*y nonlinear" true (Expr.linear_form Expr.(vx * vy) = None);
  Alcotest.(check bool) "1/x nonlinear" true
    (Expr.linear_form Expr.(one / vx) = None);
  Alcotest.(check bool) "x/2 linear" true
    (Expr.linear_form Expr.(vx / const 2.0) <> None)

(* Discretisation *)

let test_discretize_first_order () =
  let dt = 0.5 in
  let e = Expr.discretize ~dt (Expr.Ddt vx) in
  (* ddt x ~ (x - x@-1)/dt *)
  let env = env_of [ (x, 3.0); (Expr.delayed x 1, 1.0) ] in
  check_float "backward euler" 4.0 (Expr.eval env e)

let test_discretize_nested () =
  let dt = 1.0 in
  let e = Expr.discretize ~dt (Expr.Ddt (Expr.Ddt vx)) in
  (* second difference: x - 2 x@-1 + x@-2 *)
  let env =
    env_of [ (x, 4.0); (Expr.delayed x 1, 1.0); (Expr.delayed x 2, 0.0) ]
  in
  check_float "second difference" 2.0 (Expr.eval env e)

let test_extract_idt () =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "acc%d" !counter
  in
  let e, aux = Expr.extract_idt ~fresh (Expr.Idt vx) in
  Alcotest.(check int) "one accumulator" 1 (List.length aux);
  match aux with
  | [ (s, update) ] ->
      Alcotest.(check string) "replaced by signal" "acc1" (Expr.var_name s);
      Alcotest.(check string) "body is the signal" "acc1" (Expr.to_string e);
      (* update: acc1 = acc1@-1 + __dt * x *)
      let env =
        env_of [ (Expr.delayed s 1, 10.0); (Expr.dt_param, 0.1); (x, 5.0) ]
      in
      check_float "rectangle rule" 10.5 (Expr.eval env update)
  | _ -> Alcotest.fail "expected exactly one accumulator"

(* Tree dump and functions *)

let test_pp_tree_shape () =
  let e = Expr.(Add (vx, Mul (Const 2.0, vy))) in
  let dump = Format.asprintf "%a" Expr.pp_tree e in
  Alcotest.(check bool) "root plus" true
    (String.length dump > 0 && dump.[0] = '+');
  Alcotest.(check bool) "indented operands" true
    (let rec contains i s =
       i + String.length s <= String.length dump
       && (String.sub dump i (String.length s) = s || contains (i + 1) s)
     in
     contains 0 "  x" && contains 0 "    2")

let test_unary_functions_eval_and_print () =
  List.iter
    (fun (fn, name, input, expected) ->
      let e = Expr.App (fn, vx) in
      Alcotest.(check string) "printing" (name ^ "(x)") (Expr.to_string e);
      check_float name expected (Expr.eval (env_of [ (x, input) ]) e))
    [
      (Expr.Sin, "sin", 0.0, 0.0);
      (Expr.Exp, "exp", 0.0, 1.0);
      (Expr.Sqrt, "sqrt", 4.0, 2.0);
      (Expr.Abs, "abs", -3.5, 3.5);
      (Expr.Tanh, "tanh", 0.0, 0.0);
    ]

(* Equations *)

let test_solve_for_simple () =
  (* 2x + 3y - 6 = 0 solved for x: x = 3 - 1.5 y *)
  let eq =
    Eqn.make Eqn.Explicit
      ~lhs:Expr.(scale 2.0 vx + scale 3.0 vy)
      ~rhs:(Expr.const 6.0)
  in
  match Eqn.solve_for (Eqn.Cur x) eq with
  | None -> Alcotest.fail "solvable equation"
  | Some e ->
      check_float "at y=2" 0.0 (Expr.eval (env_of [ (y, 2.0) ]) e);
      check_float "at y=0" 3.0 (Expr.eval (env_of [ (y, 0.0) ]) e)

let test_solve_for_derivative () =
  (* i = C * ddt(v) solved for ddt(v): ddt(v) = i / C *)
  let i = Expr.flow "c1" "" and vnode = Expr.potential "a" "gnd" in
  let eq =
    Eqn.make (Eqn.Dipole "c1") ~lhs:(Expr.var i)
      ~rhs:(Expr.scale 2.0 (Expr.Ddt (Expr.var vnode)))
  in
  match Eqn.solve_for (Eqn.Der vnode) eq with
  | None -> Alcotest.fail "solvable for derivative"
  | Some e ->
      Alcotest.(check bool) "mentions i" true (Expr.contains_var i e);
      let env = env_of [ (i, 6.0) ] in
      check_float "i/C" 3.0 (Expr.eval env e)

let test_solve_for_missing () =
  let eq = Eqn.make Eqn.Explicit ~lhs:vx ~rhs:Expr.one in
  Alcotest.(check bool) "y not present" true (Eqn.solve_for (Eqn.Cur y) eq = None)

let test_unknowns () =
  let vnode = Expr.potential "a" "gnd" in
  let eq =
    Eqn.make Eqn.Explicit ~lhs:vx
      ~rhs:(Expr.scale 2.0 (Expr.Ddt (Expr.var vnode)))
  in
  let us = Eqn.unknowns eq in
  Alcotest.(check int) "two unknowns" 2 (List.length us);
  Alcotest.(check bool) "contains ddt" true
    (List.exists (fun p -> Eqn.compare_pseudo p (Eqn.Der vnode) = 0) us)

(* Properties *)

let arb_linear_expr =
  (* Random affine expressions over x and y, built from +,-,*const. *)
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.map (fun c -> Expr.const (float_of_int c)) (Gen.int_range (-5) 5);
        Gen.return vx;
        Gen.return vy;
      ]
  in
  (* [Gen.fix] builds each level's generators only when that level is
     drawn; a plain recursive [go] would allocate every level's
     closures (about 2^12 per case) before drawing anything. *)
  let go =
    Gen.fix (fun go n ->
        if n <= 0 then leaf
        else
          Gen.oneof
            [
              leaf;
              Gen.map2 (fun a b -> Expr.Add (a, b)) (go (n / 2)) (go (n / 2));
              Gen.map2 (fun a b -> Expr.Sub (a, b)) (go (n / 2)) (go (n / 2));
              Gen.map2
                (fun c a -> Expr.Mul (Expr.const (float_of_int c), a))
                (Gen.int_range (-4) 4) (go (n - 1));
              Gen.map (fun a -> Expr.Neg a) (go (n - 1));
            ])
  in
  let gen = Gen.sized (fun n -> go (min n 12)) in
  make ~print:Expr.to_string gen

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:300
    arb_linear_expr (fun e ->
      let env = env_of [ (x, 1.7); (y, -2.3) ] in
      let a = Expr.eval env e and b = Expr.eval env (Expr.simplify e) in
      abs_float (a -. b) <= 1e-6 *. (1.0 +. abs_float a))

let prop_linear_form_sound =
  QCheck.Test.make ~name:"linear form agrees with evaluation" ~count:300
    arb_linear_expr (fun e ->
      match Expr.linear_form e with
      | None -> QCheck.assume_fail ()
      | Some lf ->
          let env = env_of [ (x, 0.9); (y, 4.1) ] in
          let a = Expr.eval env e
          and b = Expr.eval env (Expr.of_linear_form lf) in
          abs_float (a -. b) <= 1e-6 *. (1.0 +. abs_float a))

let prop_solve_for_substitutes_back =
  QCheck.Test.make ~name:"solve_for yields a root of the equation" ~count:300
    QCheck.(pair arb_linear_expr arb_linear_expr)
    (fun (lhs, rhs) ->
      let eq = Eqn.make Eqn.Explicit ~lhs ~rhs in
      match Eqn.solve_for (Eqn.Cur x) eq with
      | None -> QCheck.assume_fail ()
      | Some sol ->
          let env_y v =
            if Expr.equal_var v y then -1.3
            else Alcotest.failf "unexpected var %s" (Expr.var_name v)
          in
          let x_val = Expr.eval env_y sol in
          let env v = if Expr.equal_var v x then x_val else env_y v in
          let residual = Expr.eval env (Eqn.residual eq) in
          abs_float residual <= 1e-6 *. (1.0 +. abs_float x_val))

let prop_delay_shifts_all_vars =
  QCheck.Test.make ~name:"delay_expr shifts every variable" ~count:200
    arb_linear_expr (fun e ->
      let shifted = Expr.delay_expr 2 e in
      Expr.Var_set.for_all (fun v -> v.Expr.delay >= 2) (Expr.vars shifted))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "expr"
    [
      ( "vars",
        [
          Alcotest.test_case "names" `Quick test_var_names;
          Alcotest.test_case "access forms" `Quick test_access_forms;
          Alcotest.test_case "precedence printing" `Quick test_pp_precedence;
        ] );
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "conditional" `Quick test_eval_cond;
          Alcotest.test_case "ddt rejected" `Quick test_eval_ddt_rejected;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "neutral elements" `Quick test_simplify_neutral;
          Alcotest.test_case "constant folding" `Quick test_simplify_constants;
        ] );
      ( "linear",
        [
          Alcotest.test_case "coefficients" `Quick test_linear_form_basic;
          Alcotest.test_case "nonlinear detection" `Quick
            test_linear_form_nonlinear;
        ] );
      ( "discretize",
        [
          Alcotest.test_case "first order" `Quick test_discretize_first_order;
          Alcotest.test_case "nested ddt" `Quick test_discretize_nested;
          Alcotest.test_case "idt extraction" `Quick test_extract_idt;
          Alcotest.test_case "idt rejected" `Quick
            test_discretize_idt_rejected;
        ] );
      ( "trees",
        [
          Alcotest.test_case "tree dump" `Quick test_pp_tree_shape;
          Alcotest.test_case "unary functions" `Quick
            test_unary_functions_eval_and_print;
        ] );
      ( "equations",
        [
          Alcotest.test_case "solve for variable" `Quick test_solve_for_simple;
          Alcotest.test_case "solve for derivative" `Quick
            test_solve_for_derivative;
          Alcotest.test_case "missing variable" `Quick test_solve_for_missing;
          Alcotest.test_case "unknowns" `Quick test_unknowns;
        ] );
      ( "properties",
        qt
          [
            prop_simplify_preserves_eval;
            prop_linear_form_sound;
            prop_solve_for_substitutes_back;
            prop_delay_shifts_all_vars;
          ] );
    ]
