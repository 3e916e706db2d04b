(* Differential tests for the fast-fidelity MNA engine.

   [`Fast] trades the paper's fixed re-stamp/re-factor budget for
   sparse symbolic reuse, Newton early-exit and adaptive substepping;
   these tests pin down the contract that buys the speedup:

   - [`Paper] (the default) stays bit-identical to the seed engine,
     sample for sample and counter for counter;
   - [`Fast] traces agree with [`Paper] within the health-watchdog
     NRMSE budget on the paper circuits and on randomly generated
     RC / RLC / rectifier networks;
   - the sparse back-end (a direct factor with its own analysis, and a
     numeric refactor along an earlier analysis) agrees with the dense
     solver to rounding, and the
     stale-pivot escape hatch raises and recovers as documented;
   - singular and near-singular networks fail with the same
     [Matrix.Singular] diagnostics under either fidelity;
   - telemetry: a [`Fast] run never reports wasted Newton passes, the
     [`Paper] run summary is pinned, and enabling the journal does not
     change a single sample in either fidelity;
   - the steppers run the engines' kernel: under a constant stimulus
     they reproduce the whole-run traces bit for bit and count the
     same work. *)

module Matrix = Amsvp_mna.Matrix
module Sparse = Amsvp_mna.Sparse
module System = Amsvp_mna.System
module Dc = Amsvp_mna.Dc
module Engine = Amsvp_mna.Engine
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Circuits = Amsvp_netlist.Circuits
module Trace = Amsvp_util.Trace
module Stimulus = Amsvp_util.Stimulus
module Metrics = Amsvp_util.Metrics
module Journal = Amsvp_obs.Journal
module Obs = Amsvp_obs.Obs
module Runreport = Amsvp_report.Runreport

let checkf tol = Alcotest.(check (float tol))
(* Sample-for-sample bit identity. *)
let check_traces label a b =
  Alcotest.(check int)
    (label ^ ": sample count") (Trace.length a) (Trace.length b);
  for i = 0 to Trace.length a - 1 do
    let va = Trace.value a i and vb = Trace.value b i in
    if not (Int64.equal (Int64.bits_of_float va) (Int64.bits_of_float vb))
    then
      Alcotest.failf "%s: sample %d differs: %h vs %h (t=%.9g)" label i va vb
        (Trace.time a i)
  done

(* The engine-agreement budget of the sweep health watchdog
   (test_spice_matches_eln uses the same 5e-3 figure). *)
let nrmse_budget = 5e-3

let nrmse_fast_vs_paper ?substeps ?iterations (tc : Circuits.testcase) ~dt
    ~t_stop =
  let run fidelity =
    Engine.run_testcase_spice ?substeps ?iterations ~fidelity tc ~dt ~t_stop
  in
  let paper = run `Paper and fast = run `Fast in
  ( Metrics.nrmse_traces ~reference:paper.Engine.trace fast.Engine.trace
      ~t0:0.0 ~dt:(t_stop /. 500.0) ~n:499,
    paper,
    fast )

(* ---- `Paper bit-identity with the seed engine ---- *)

let test_paper_bit_identity () =
  let tc = Circuits.rc_ladder 1 in
  let dflt =
    Engine.run_testcase_spice ~substeps:4 ~iterations:2 tc ~dt:1e-5
      ~t_stop:1e-3
  in
  let paper =
    Engine.run_testcase_spice ~substeps:4 ~iterations:2 ~fidelity:`Paper tc
      ~dt:1e-5 ~t_stop:1e-3
  in
  check_traces "default vs explicit `Paper" dflt.trace paper.trace;
  (* The exact seed cost model: every Newton pass of every substep
     re-stamps and re-factors. *)
  Alcotest.(check int) "steps" 100 paper.stats.steps;
  Alcotest.(check int) "solves" 800 paper.stats.solves;
  Alcotest.(check int) "factorizations" 800 paper.stats.factorizations;
  Alcotest.(check int) "device evals" 800 paper.stats.device_evals

(* ---- `Fast differential accuracy on the paper circuits ---- *)

(* The accuracy contract holds where the engine is operated: reporting
   steps that resolve the circuit's time constants (the bench rows use
   dt = 50 ns; the sweeps µs-scale steps). At dt comparable to the
   fastest time constant the adaptive controller correctly trades
   accuracy for the remaining speed — covered separately below. *)
let test_fast_accuracy_paper_circuits () =
  List.iter
    (fun tc ->
      let e, _, _ = nrmse_fast_vs_paper tc ~dt:5e-7 ~t_stop:1e-3 in
      if not (e < nrmse_budget) then
        Alcotest.failf "%s: fast NRMSE %.3e exceeds budget %.0e"
          tc.Circuits.label e nrmse_budget)
    (Circuits.all_paper_cases ()
    @ [
        Circuits.rc_ladder 20;
        Circuits.rlc_series ();
        Circuits.rectifier ();
      ])

let test_fast_coarse_dt_degrades_gracefully () =
  (* Reporting steps comparable to the stage time constant: the
     controller gives up some agreement with the fixed-budget paper
     discretisation, but the error stays bounded and shrinks again
     with the step. *)
  let tc = Circuits.rc_ladder 20 in
  let e_coarse, _, _ = nrmse_fast_vs_paper tc ~dt:4e-6 ~t_stop:1e-3 in
  let e_fine, _, _ = nrmse_fast_vs_paper tc ~dt:5e-7 ~t_stop:1e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded at coarse dt (%.3e)" e_coarse)
    true (e_coarse < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "improves with resolution (%.3e < %.3e)" e_fine e_coarse)
    true (e_fine < e_coarse)

(* ---- `Fast does radically less factorisation work ---- *)

let test_fast_linear_workload () =
  let tc = Circuits.rc_ladder 20 in
  let _, paper, fast = nrmse_fast_vs_paper tc ~dt:2e-6 ~t_stop:1e-3 in
  (* A linear network with a fixed step: the LU is computed a handful
     of times (once per adaptive substep count in use), not once per
     Newton pass. *)
  Alcotest.(check bool)
    (Printf.sprintf "few factorizations (%d vs %d)" fast.Engine.stats.factorizations
       paper.Engine.stats.factorizations)
    true
    (fast.Engine.stats.factorizations * 100 < paper.Engine.stats.factorizations);
  Alcotest.(check bool) "fewer solves" true
    (fast.Engine.stats.solves < paper.Engine.stats.solves);
  (* Early-exit telemetry is always populated under `Fast, and by
     construction nothing is wasted. *)
  match fast.Engine.newton with
  | None -> Alcotest.fail "`Fast must populate newton telemetry"
  | Some nw ->
      Alcotest.(check int) "no wasted passes" 0 nw.Engine.wasted_iters;
      Alcotest.(check bool) "pivot range sane" true
        (nw.Engine.pivot_min > 0.0 && nw.Engine.pivot_max >= nw.Engine.pivot_min)

let test_fast_pwl_restamps () =
  (* The rectifier flips its diode region as the sine crosses 0: the
     factor cache must re-stamp on each region change — more than one
     factorisation, still far below the paper budget. *)
  let tc = Circuits.rectifier () in
  let _, paper, fast = nrmse_fast_vs_paper tc ~dt:2e-6 ~t_stop:2e-3 in
  Alcotest.(check bool) "re-stamps on region changes" true
    (fast.Engine.stats.factorizations > 1);
  Alcotest.(check bool) "still far below paper budget" true
    (fast.Engine.stats.factorizations * 20 < paper.Engine.stats.factorizations)

(* ---- Random circuits: QCheck differential harness ---- *)

(* The random circuit families: RC ladders, series RLC networks and
   rectifiers, each from two parameters. *)
let rc_params = QCheck.(pair (int_range 1 6) (float_range 0.5 4.0))
let random_rc (order, rscale) = Circuits.rc_ladder ~r:(5e3 *. rscale) order
let rlc_params = QCheck.(pair (float_range 0.5 3.0) (float_range 0.5 3.0))

let random_rlc (rs, ls) =
  Circuits.rlc_series ~r:(100.0 *. rs) ~l:(10e-3 *. ls) ()

let rect_params = QCheck.(pair (float_range 0.3 3.0) (float_range 0.5 2.0))

let random_rect (rscale, gscale) =
  Circuits.rectifier ~r:(1e3 *. rscale) ~g_on:(1e-2 *. gscale) ()

let prop_fast_matches_paper_rc =
  QCheck.Test.make ~name:"fast matches paper on random RC ladders" ~count:10
    rc_params
    (fun p ->
      let tc = random_rc p in
      let e, _, _ =
        nrmse_fast_vs_paper ~substeps:4 tc ~dt:2.5e-7 ~t_stop:2.5e-4
      in
      e < nrmse_budget)

let prop_fast_matches_paper_rlc =
  QCheck.Test.make ~name:"fast matches paper on random RLC networks" ~count:8
    rlc_params
    (fun p ->
      let tc = random_rlc p in
      let e, _, _ =
        nrmse_fast_vs_paper ~substeps:8 tc ~dt:1e-6 ~t_stop:2e-3
      in
      e < nrmse_budget)

let prop_fast_matches_paper_pwl =
  QCheck.Test.make ~name:"fast matches paper on random rectifiers" ~count:8
    rect_params
    (fun p ->
      let tc = random_rect p in
      let e, _, _ =
        nrmse_fast_vs_paper ~substeps:8 tc ~dt:5e-6 ~t_stop:2e-3
      in
      e < nrmse_budget)

(* ---- Sparse vs dense linear algebra ---- *)

let dense_solution triplets ~n b =
  let m = Matrix.create n in
  List.iter (fun (i, j, v) -> Matrix.add_to m i j v) triplets;
  Matrix.lu_solve (Matrix.lu_factor m) b

let rel_close a b =
  Array.for_all2
    (fun u w -> abs_float (u -. w) <= 1e-12 *. (1.0 +. max (abs_float u) (abs_float w)))
    a b

let prop_sparse_matches_dense =
  QCheck.Test.make
    ~name:"sparse direct, and analyze+refactor, match the dense solver"
    ~count:50
    QCheck.(
      list_of_size (Gen.int_range 5 40)
        (triple (int_range 0 9) (int_range 0 9) (float_range (-2.0) 2.0)))
    (fun entries ->
      let n = 10 in
      let triplets = entries @ List.init n (fun i -> (i, i, 25.0)) in
      let b = Array.init n (fun i -> float_of_int (i - 4)) in
      let xd = dense_solution triplets ~n b in
      let sym = Sparse.analyze ~n triplets in
      let xr = Sparse.lu_solve (Sparse.refactor sym triplets) b in
      (* Numeric refactor on the same pattern with different values:
         scale each entry, keeping diagonal dominance. *)
      let triplets' =
        List.mapi
          (fun k (i, j, v) ->
            (i, j, v *. (1.0 +. (0.04 *. float_of_int (k mod 7)))))
          triplets
      in
      let xd' = dense_solution triplets' ~n b in
      let xr' = Sparse.lu_solve (Sparse.refactor sym triplets') b in
      (* A direct factor of the new values: their own analysis, then the
         refactor along it. *)
      let xs' =
        Sparse.lu_solve
          (Sparse.refactor (Sparse.analyze ~n triplets') triplets')
          b
      in
      rel_close xd xr && rel_close xd' xs' && rel_close xd' xr')

(* ---- The flat solver and RHS plan against the arithmetic they
   replaced ---- *)

(* A circuit of any random family, plus a seed for the vectors and
   timesteps a property draws. *)
let random_circuit =
  let family =
    QCheck.Gen.(
      oneof
        [
          map random_rc (QCheck.gen rc_params);
          map random_rlc (QCheck.gen rlc_params);
          map random_rect (QCheck.gen rect_params);
        ])
  in
  QCheck.make
    ~print:(fun ((tc : Circuits.testcase), seed) ->
      Printf.sprintf "%s, seed %d" tc.label seed)
    QCheck.Gen.(pair family (int_bound 1_000_000))

(* The circuit plus a constant and an input-driven current source on
   random nodes, so that every kind of RHS contribution occurs. *)
let with_current_sources (tc : Circuits.testcase) rs =
  let c = tc.circuit in
  let ground = Circuit.ground c in
  let nodes = Array.of_list (List.filter (( <> ) ground) (Circuit.nodes c)) in
  let node () = nodes.(Random.State.int rs (Array.length nodes)) in
  Circuit.add_isource c ~name:"iq" ~pos:(node ()) ~neg:ground
    (Component.Dc (Random.State.float rs 2e-3));
  Circuit.add_isource c ~name:"iu" ~pos:ground ~neg:(node ())
    (Component.Input "iu_in");
  c

(* A vector with some exact zeros of either sign, so the zero-sign rule
   of [Sparse.of_dense] is exercised. *)
let random_vector rs n =
  Array.init n (fun _ ->
      match Random.State.int rs 4 with
      | 0 -> 0.0
      | 1 -> -0.0
      | _ -> Random.State.float rs 2.0 -. 1.0)

let bits = Int64.bits_of_float

(* The dense substitution loop: the ELN stepper's solve before it went
   through the factor's nonzeros. *)
let dense_substitution (f : Matrix.lu) b =
  let n = f.ln in
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(f.perm.(i)) in
    for j = 0 to i - 1 do
      s := !s -. (f.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (f.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. f.lu.((i * n) + i)
  done;
  x

let prop_flat_matches_dense_loop =
  QCheck.Test.make
    ~name:"flat solve of a dense factor equals the dense loop" ~count:40
    random_circuit
    (fun (tc, seed) ->
      let rs = Random.State.make [| seed |] in
      let sys = System.build tc.circuit in
      let n = System.size sys in
      let h = 1e-7 *. (1.0 +. Random.State.float rs 100.0) in
      let state = random_vector rs n in
      let f = Matrix.lu_factor (System.stamp_matrix ~state sys ~h) in
      let flat = Sparse.of_dense f in
      List.for_all
        (fun _ ->
          let b = random_vector rs n in
          let expected = dense_substitution f b in
          let x = Array.make n nan in
          Sparse.lu_solve_into flat ~b ~x;
          Array.for_all2
            (fun e g ->
              Float.equal e g && (e = 0.0 || Int64.equal (bits e) (bits g)))
            expected x)
        [ 1; 2; 3 ])

(* [Sparse.refactor]'s numeric elimination and the solve, as they were
   written over per-row [(column, value)] arrays, run over the pattern
   of the factor under test: [perm] and the column indices of [l] and
   [u]. *)
let reference_refactor (pattern : Sparse.lu) triplets =
  let n = pattern.n in
  let cols (m : Sparse.csr) i =
    Array.sub m.col m.ptr.(i) (m.ptr.(i + 1) - m.ptr.(i))
  in
  let pos = Array.make n 0 in
  Array.iteri (fun i p -> pos.(p) <- i) pattern.perm;
  let buckets = Array.make n [] in
  List.iter
    (fun (i, j, v) -> buckets.(pos.(i)) <- (j, v) :: buckets.(pos.(i)))
    triplets;
  let diag = Array.make n 0.0 in
  let zeros m = Array.init n (fun i -> Array.map (fun j -> (j, 0.0)) (cols m i)) in
  let lrows = zeros pattern.l and urows = zeros pattern.u in
  let w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    List.iter (fun (j, v) -> w.(j) <- w.(j) +. v) buckets.(i);
    Array.iteri
      (fun e (j, _) ->
        let f = w.(j) /. diag.(j) in
        lrows.(i).(e) <- (j, f);
        Array.iter (fun (k, uv) -> w.(k) <- w.(k) -. (f *. uv)) urows.(j))
      lrows.(i);
    diag.(i) <- w.(i);
    Array.iteri (fun e (k, _) -> urows.(i).(e) <- (k, w.(k))) urows.(i);
    Array.iter (fun (j, _) -> w.(j) <- 0.0) lrows.(i);
    w.(i) <- 0.0;
    Array.iter (fun (j, _) -> w.(j) <- 0.0) urows.(i)
  done;
  let solve b =
    let x = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let s = ref b.(pattern.perm.(i)) in
      Array.iter (fun (j, v) -> s := !s -. (v *. x.(j))) lrows.(i);
      x.(i) <- !s
    done;
    for i = n - 1 downto 0 do
      let s = ref x.(i) in
      Array.iter (fun (j, v) -> s := !s -. (v *. x.(j))) urows.(i);
      x.(i) <- !s /. diag.(i)
    done;
    x
  in
  (lrows, urows, diag, solve)

let prop_refactor_matches_reference =
  QCheck.Test.make
    ~name:"refactor and flat solve equal the reference loop over the pattern"
    ~count:40 random_circuit
    (fun (tc, seed) ->
      let rs = Random.State.make [| seed |] in
      let sys = System.build tc.circuit in
      let n = System.size sys in
      let stamp h = System.stamp_triplets ~state:(random_vector rs n) sys ~h in
      let sym = Sparse.analyze ~n (stamp 1e-6) in
      (* Numeric refactors at other timesteps (and, for the rectifier,
         other regions) on the analysed pattern. *)
      List.for_all
        (fun h ->
          let triplets = stamp h in
          match Sparse.refactor sym triplets with
          | exception Sparse.Singular _ -> true
          | lu ->
              let lrows, urows, diag, solve = reference_refactor lu triplets in
              let same a b = Int64.equal (bits a) (bits b) in
              (* CSR values are the rows' values, concatenated. *)
              let values rows =
                Array.concat (List.map (Array.map snd) (Array.to_list rows))
              in
              let b = random_vector rs n in
              let x = Array.make n nan in
              Sparse.lu_solve_into lu ~b ~x;
              Array.for_all2 same lu.l.value (values lrows)
              && Array.for_all2 same lu.u.value (values urows)
              && Array.for_all2 same lu.diag diag
              && Array.for_all2 same (solve b) x)
        [ 1e-6; 3e-7; 2e-5 ])

(* [System.stamp_rhs] as a per-device loop over [System.devices], as it
   was written before the plan. *)
let reference_rhs sys ~h ~state ~inputs =
  let rhs = Array.make (System.size sys) 0.0 in
  let v i = if i < 0 then 0.0 else state.(i) in
  let source (d : System.device) = function
    | Component.Dc x -> x
    | Component.Input _ -> inputs.(d.slot)
  in
  Array.iter
    (fun (d : System.device) ->
      let a = d.pos and b = d.neg in
      match d.component.kind with
      | Resistor _ | Vccs _ | Pwl_conductance _ | Vcvs _ -> ()
      | Capacitor c ->
          let ieq = c /. h *. (v a -. v b) in
          if a >= 0 then rhs.(a) <- rhs.(a) +. ieq;
          if b >= 0 then rhs.(b) <- rhs.(b) -. ieq
      | Isource src ->
          let j = source d src in
          if a >= 0 then rhs.(a) <- rhs.(a) -. j;
          if b >= 0 then rhs.(b) <- rhs.(b) +. j
      | Vsource src -> rhs.(d.branch) <- source d src
      | Inductor l -> rhs.(d.branch) <- -.(l /. h) *. state.(d.branch))
    (System.devices sys);
  rhs

let prop_rhs_plan_matches_device_loop =
  QCheck.Test.make ~name:"stamp_rhs equals the per-device loop" ~count:40
    random_circuit
    (fun (tc, seed) ->
      let rs = Random.State.make [| seed |] in
      let sys = System.build (with_current_sources tc rs) in
      let n = System.size sys in
      let rhs = Array.make n nan in
      (* The timestep changes between calls and comes back, so a
         coefficient cached for a stale [h] shows. *)
      let h1 = 1e-7 *. (1.0 +. Random.State.float rs 10.0) in
      List.for_all
        (fun h ->
          let state = random_vector rs n in
          let inputs =
            random_vector rs (Array.length (System.inputs sys))
          in
          System.stamp_rhs sys ~h ~state ~inputs ~rhs;
          Array.for_all2
            (fun a b -> Int64.equal (bits a) (bits b))
            (reference_rhs sys ~h ~state ~inputs)
            rhs)
        [ h1; h1 /. 3.0; h1 /. 3.0; h1; 2.5e-5 ])

let test_stale_pivot_fallback () =
  (* analyze picks its pivot order from the values it is given; feed
     the same pattern values that zero the chosen pivot. The matrix is
     still nonsingular — only the reused pivot order is stale — so
     refactor must refuse with [Singular], and a fresh analysis of the
     new values must succeed. *)
  let good = [ (0, 0, 4.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 4.0) ] in
  let stale = [ (0, 0, 0.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 0.0) ] in
  let sym = Sparse.analyze ~n:2 good in
  let b = [| 3.0; 4.0 |] in
  let x = Sparse.lu_solve (Sparse.refactor sym good) b in
  checkf 1e-12 "good x0" (8.0 /. 15.0) x.(0);
  checkf 1e-12 "good x1" (13.0 /. 15.0) x.(1);
  Alcotest.check_raises "stale pivot detected" (Sparse.Singular 0) (fun () ->
      ignore (Sparse.refactor sym stale));
  (* The engine's escape hatch: re-analyze with fresh pivoting. *)
  let x' = Sparse.lu_solve (Sparse.refactor (Sparse.analyze ~n:2 stale) stale) b in
  checkf 1e-12 "recovered x0" 4.0 x'.(0);
  checkf 1e-12 "recovered x1" 3.0 x'.(1)

(* ---- Singular and near-singular parity across fidelities ---- *)

let singular_of fidelity circuit ~output =
  try
    ignore
      (Engine.spice_like ~fidelity circuit ~inputs:[] ~output ~dt:1e-5
         ~t_stop:1e-4);
    None
  with Matrix.Singular k -> Some k

let test_singular_parity () =
  (* Numerically singular (the structural cases — source loops and
     cutsets — are caught earlier, at [System.build] time): a VCCS
     whose transconductance exactly cancels the only conductance, so
     the assembled matrix is 0. *)
  let c = Circuit.create () in
  Circuit.add_resistor c ~name:"r" ~pos:"a" ~neg:"gnd" 1.0e3;
  Circuit.add c
    (Component.make ~name:"g1" ~pos:"a" ~neg:"gnd"
       (Component.Vccs { gm = -1e-3; ctrl_pos = "a"; ctrl_neg = "gnd" }));
  let out = Expr.potential "a" "gnd" in
  let p = singular_of `Paper c ~output:out in
  let f = singular_of `Fast c ~output:out in
  Alcotest.(check bool) "paper raises" true (p <> None);
  Alcotest.(check (option int)) "same Singular k" p f;
  (* Near-singular: a conductance below the 1e-300 pivot floor. *)
  let w = Circuit.create () in
  Circuit.add_resistor w ~name:"r" ~pos:"a" ~neg:"gnd" 1e305;
  let out = Expr.potential "a" "gnd" in
  let p = singular_of `Paper w ~output:out in
  let f = singular_of `Fast w ~output:out in
  Alcotest.(check bool) "paper rejects tiny pivot" true (p <> None);
  Alcotest.(check (option int)) "same near-singular k" p f

(* ---- Telemetry: journal population and journal-off identity ---- *)

(* Runs [run] with the journal off and on; checks the journal is pure
   observation, that the one newton.run record counts every reporting
   step once in each of its histograms, and that every newton.step
   journaled is anomalous: never converged within the budget, redone
   with more substeps, or stressed past 0.5. Returns both results, the
   newton.step events and a reader of the newton.run payload. *)
let journal_on_off run =
  Journal.reset ();
  Journal.disable ();
  let off = run () in
  Journal.reset ();
  Journal.enable ();
  let on = run () in
  Journal.disable ();
  (* The journal is pure observation: not one sample may move. *)
  check_traces "journal on/off" off.Engine.trace on.Engine.trace;
  Alcotest.(check int) "same factorizations" off.stats.factorizations
    on.stats.factorizations;
  let events = List.filter (fun e -> e.Journal.cat = "mna") (Journal.events ()) in
  let steps = List.filter (fun e -> e.Journal.name = "newton.step") events in
  let payload =
    match List.filter (fun e -> e.Journal.name = "newton.run") events with
    | [ e ] -> e.Journal.payload
    | l ->
        Alcotest.failf "expected one newton.run event, got %d" (List.length l)
  in
  let counted prefix =
    List.fold_left
      (fun n (k, v) ->
        match v with
        | Journal.I c when String.starts_with ~prefix k -> n + c
        | _ -> n)
      0 payload
  in
  Alcotest.(check int) "residual decades count every step" on.stats.steps
    (counted "residual_le_");
  Alcotest.(check int) "converged-at counts count every step" on.stats.steps
    (counted "converged_at_");
  (* The report reads the engine's keys back. *)
  (match
     (Runreport.build ~journal:(List.map Journal.event_json events) ())
       .r_convergence
   with
  | Some cv ->
      Alcotest.(check int) "report: steps" on.stats.steps cv.cv_steps;
      Alcotest.(check int) "report: residual decades" on.stats.steps
        (List.fold_left (fun n (_, c) -> n + c) 0 cv.cv_residual_hist)
  | None -> Alcotest.fail "report: no CONVERGENCE section");
  List.iter
    (fun e ->
      let field k = List.assoc_opt k e.Journal.payload in
      let anomalous =
        field "converged_at" = Some (Journal.I 0)
        || (match field "redone" with Some (Journal.I r) -> r > 0 | _ -> false)
        || match field "stress" with Some (Journal.F s) -> s > 0.5 | _ -> false
      in
      if not anomalous then
        Alcotest.failf "newton.step at step %d is not anomalous" e.Journal.step)
    steps;
  (off, on, steps, fun k -> List.assoc_opt k payload)

let test_fast_journal_telemetry () =
  let _, on, steps, run_field =
    journal_on_off (fun () ->
        Engine.run_testcase_spice ~fidelity:`Fast (Circuits.rc_ladder 20)
          ~dt:2e-6 ~t_stop:1e-3)
  in
  Alcotest.(check bool) "wasted_iters = 0" true
    (run_field "wasted_iters" = Some (Journal.I 0));
  (match run_field "dt_stress" with
  | Some (Journal.F s) ->
      Alcotest.(check bool) "dt_stress finite" true (Float.is_finite s)
  | _ -> Alcotest.fail "newton.run missing dt_stress");
  (match run_field "total_iters" with
  | Some (Journal.I t) ->
      Alcotest.(check bool) "total_iters positive" true (t > 0)
  | _ -> Alcotest.fail "newton.run missing total_iters");
  (* A linear network's one solve per substep is exact. *)
  Alcotest.(check bool) "every step converged at pass 1" true
    (run_field "converged_at_1" = Some (Journal.I on.stats.steps));
  Alcotest.(check bool) "max_residual = 0" true
    (run_field "max_residual" = Some (Journal.F 0.0));
  (* Only the steps the substep controller redid or that a stimulus
     edge stressed are journaled, none for non-convergence. *)
  List.iter
    (fun e ->
      if List.assoc_opt "converged_at" e.Journal.payload <> Some (Journal.I 1)
      then
        Alcotest.failf "newton.step at step %d: not converged at pass 1"
          e.Journal.step;
      match List.assoc_opt "nsub" e.Journal.payload with
      | Some (Journal.I ns) ->
          if ns < 1 || ns > 8 then
            Alcotest.failf "newton.step nsub %d out of range" ns
      | _ -> Alcotest.fail "newton.step missing nsub")
    steps;
  Alcotest.(check bool) "a few steps journaled, not every one" true
    (List.length steps < on.stats.steps / 10)

let test_paper_journal_telemetry () =
  (* The seed engine's summaries of these runs; with 3 passes the last
     one of every substep is wasted on this linear network. *)
  List.iter
    (fun (iterations, total, wasted) ->
      let off, on, _, run_field =
        journal_on_off (fun () ->
            Engine.run_testcase_spice ~substeps:4 ~iterations ~fidelity:`Paper
              (Circuits.rc_ladder 1) ~dt:1e-5 ~t_stop:1e-3)
      in
      Alcotest.(check bool) "telemetry only with the journal on" true
        (off.newton = None && on.newton <> None);
      List.iter
        (fun (k, v) ->
          if run_field k <> Some v then
            Alcotest.failf
              "iterations %d: newton.run %s differs from the pinned value"
              iterations k)
        [
          ("total_iters", Journal.I total);
          ("wasted_iters", Journal.I wasted);
          ("max_residual", Journal.F 0.0);
          ("dt_stress", Journal.F 0x1.052cdb8400334p+0);
          ("dim", Journal.I 3);
        ])
    [ (2, 800, 0); (3, 1200, 400) ]

(* ---- Golden traces for the fast path ---- *)

(* Regenerate after an intentional controller change:

     AMSVP_GOLDEN_REGEN=1 dune exec test/test_mna_fast.exe -- test golden
     cp _build/default/test/fixtures/fast_*.golden test/fixtures/
*)
let golden_cases =
  [
    ("fast_rc20", Circuits.rc_ladder 20, 1e-5, 1e-3);
    ("fast_rect", Circuits.rectifier (), 1e-5, 2e-3);
  ]

let fixture_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "fixtures"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let trace_text t =
  let b = Buffer.create 4096 in
  for i = 0 to Trace.length t - 1 do
    Buffer.add_string b
      (Printf.sprintf "%.9e %h\n" (Trace.time t i) (Trace.value t i))
  done;
  Buffer.contents b

let test_golden_fast_traces () =
  let regen = Sys.getenv_opt "AMSVP_GOLDEN_REGEN" = Some "1" in
  List.iter
    (fun (base, tc, dt, t_stop) ->
      let golden = Filename.concat fixture_dir (base ^ ".golden") in
      let r = Engine.run_testcase_spice ~fidelity:`Fast tc ~dt ~t_stop in
      let text = trace_text r.trace in
      if regen then begin
        (try Sys.remove golden with Sys_error _ -> ());
        let oc = open_out_bin golden in
        output_string oc text;
        close_out oc
      end
      else if not (Sys.file_exists golden) then
        Alcotest.failf "%s missing — run with AMSVP_GOLDEN_REGEN=1" golden
      else
        let expected = read_file golden in
        if not (String.equal expected text) then
          Alcotest.failf "%s drifted from its golden baseline" base)
    golden_cases

(* ---- Stepper parity: the VP embedding of the engines ---- *)

(* With a constant stimulus the stepper's hold-within-step input
   contract coincides with the engine's substep sampling, so the two
   drivers of the kernel must walk the same path. *)
let parity_cases =
  [ Circuits.rc_ladder 4; Circuits.rc_ladder 20; Circuits.rectifier () ]

let dt_parity = 1e-5

let constant_inputs (tc : Circuits.testcase) =
  List.map (fun (n, _) -> (n, Stimulus.constant 1.0)) tc.stimuli

let engine_run fidelity (tc : Circuits.testcase) =
  Engine.spice_like ~fidelity tc.circuit ~inputs:(constant_inputs tc)
    ~output:tc.output ~dt:dt_parity ~t_stop:(100.0 *. dt_parity)

(* 100 stepper ticks; the outputs as a trace aligned with the engine's. *)
let stepper_run fidelity (tc : Circuits.testcase) =
  let names = List.map fst tc.stimuli in
  let st =
    Engine.Spice_stepper.create ~fidelity tc.circuit ~inputs:names
      ~output:tc.output ~dt:dt_parity
  in
  let iv = Array.make (List.length names) 1.0 in
  let trace = Trace.create () in
  Trace.add trace ~time:0.0 ~value:(Engine.Spice_stepper.read st tc.output);
  for k = 1 to 100 do
    Trace.add trace ~time:(float_of_int k *. dt_parity)
      ~value:(Engine.Spice_stepper.step st ~input_values:iv)
  done;
  trace

let test_stepper_matches_engine fidelity () =
  List.iter
    (fun (tc : Circuits.testcase) ->
      let engine = engine_run fidelity tc in
      check_traces ("stepper vs engine " ^ tc.label) engine.trace
        (stepper_run fidelity tc))
    parity_cases

let mna_counters =
  [
    "amsvp_mna_rhs_builds_total";
    "amsvp_mna_solves_total";
    "amsvp_mna_factorizations_total";
    "amsvp_mna_device_evals_total";
  ]

(* Registry counter deltas over [f ()]. *)
let counter_deltas f =
  let snap () =
    List.filter_map
      (fun (n, _, v) -> if List.mem n mna_counters then Some (n, v) else None)
      (Obs.counter_values ())
  in
  let before = snap () in
  f ();
  List.map (fun (n, v) -> (n, v - List.assoc n before)) (snap ())

let test_stepper_counters_match_engine () =
  let check label engine stepper =
    let e = counter_deltas engine and s = counter_deltas stepper in
    List.iter
      (fun n ->
        Alcotest.(check (option int)) (label ^ ": " ^ n) (List.assoc_opt n e)
          (List.assoc_opt n s))
      mna_counters
  in
  List.iter
    (fun (tc : Circuits.testcase) ->
      List.iter
        (fun (fl, fidelity) ->
          check
            (Printf.sprintf "%s %s" tc.label fl)
            (fun () -> ignore (engine_run fidelity tc))
            (fun () -> ignore (stepper_run fidelity tc)))
        [ ("paper", `Paper); ("fast", `Fast) ])
    [ Circuits.rc_ladder 20; Circuits.rectifier () ];
  (* The ELN engine is its stepper plus a loop: the one factorisation
     and device evaluation are counted by either. *)
  let tc = Circuits.rc_ladder 20 in
  check "RC20 eln"
    (fun () ->
      ignore
        (Engine.eln_like tc.circuit ~inputs:(constant_inputs tc)
           ~output:tc.output ~dt:dt_parity ~t_stop:(100.0 *. dt_parity)))
    (fun () ->
      let st =
        Engine.Eln_stepper.create tc.circuit ~inputs:(List.map fst tc.stimuli)
          ~output:tc.output ~dt:dt_parity
      in
      for _ = 1 to 100 do
        ignore (Engine.Eln_stepper.step st ~input_values:[| 1.0 |])
      done)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "amsvp-mna-fast"
    [
      ( "fidelity",
        [
          Alcotest.test_case "paper bit-identity" `Quick test_paper_bit_identity;
          Alcotest.test_case "fast accuracy on paper circuits" `Quick
            test_fast_accuracy_paper_circuits;
          Alcotest.test_case "coarse dt degrades gracefully" `Quick
            test_fast_coarse_dt_degrades_gracefully;
          Alcotest.test_case "fast linear workload" `Quick
            test_fast_linear_workload;
          Alcotest.test_case "fast pwl re-stamps" `Quick test_fast_pwl_restamps;
          Alcotest.test_case "stepper fast matches engine" `Quick
            (test_stepper_matches_engine `Fast);
          Alcotest.test_case "stepper paper matches engine" `Quick
            (test_stepper_matches_engine `Paper);
          Alcotest.test_case "stepper counters match engine" `Quick
            test_stepper_counters_match_engine;
        ] );
      ( "random",
        qt
          [
            prop_fast_matches_paper_rc;
            prop_fast_matches_paper_rlc;
            prop_fast_matches_paper_pwl;
            prop_sparse_matches_dense;
            prop_flat_matches_dense_loop;
            prop_refactor_matches_reference;
            prop_rhs_plan_matches_device_loop;
          ] );
      ( "sparse",
        [
          Alcotest.test_case "stale pivot fallback" `Quick
            test_stale_pivot_fallback;
          Alcotest.test_case "singular parity" `Quick test_singular_parity;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "fast journal telemetry" `Quick
            test_fast_journal_telemetry;
          Alcotest.test_case "paper journal telemetry" `Quick
            test_paper_journal_telemetry;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fast golden traces" `Quick test_golden_fast_traces;
        ] );
    ]
