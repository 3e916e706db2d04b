module Trace = Amsvp_util.Trace
module Circuits = Amsvp_netlist.Circuits
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal

(* Registry-backed solver counters: the per-run [stats] record is still
   returned (tests and callers depend on the per-run values); the global
   counters accumulate across runs and feed the metrics sinks. *)
let c_steps = Obs.Counter.make ~help:"MNA reporting steps" "amsvp_mna_steps_total"

let c_device_evals =
  Obs.Counter.make ~help:"full device-evaluation (re-stamp) passes"
    "amsvp_mna_device_evals_total"

let c_factorizations =
  Obs.Counter.make ~help:"LU factorisations" "amsvp_mna_factorizations_total"

let c_solves =
  Obs.Counter.make ~help:"triangular solves" "amsvp_mna_solves_total"

let c_rhs_builds =
  Obs.Counter.make ~help:"RHS vector builds" "amsvp_mna_rhs_builds_total"

let h_solver_passes =
  Obs.Histogram.make
    ~help:"solver passes (substeps x Newton iterations) per reporting step"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 24.; 32.; 48.; 64.; 128. |]
    "amsvp_mna_solver_passes_per_step"

let g_matrix_dim =
  Obs.Gauge.make ~help:"dimension of the last MNA system built"
    "amsvp_mna_matrix_dim"

(* Convergence telemetry — only advanced by runs that compute the
   residual norms: every fast whole run, and paper runs while the
   journal is enabled (the fixed budget has no other use for them). *)
let c_newton_wasted =
  Obs.Counter.make
    ~help:"Newton passes taken after the update norm already met tolerance"
    "amsvp_mna_wasted_newton_iters_total"

(* Upper bounds of the residual decades: of the metrics histogram below
   and of the per-step counts each newton.run record carries. *)
let residual_decades = [| 1e-15; 1e-12; 1e-9; 1e-6; 1e-3; 1.0; 1e3 |]

let h_newton_residual =
  Obs.Histogram.make
    ~help:"final Newton update norm (inf-norm) per solver substep"
    ~buckets:residual_decades "amsvp_mna_newton_residual"

type stats = {
  steps : int;
  device_evals : int;
  factorizations : int;
  solves : int;
}

type newton = {
  total_iters : int;
  wasted_iters : int;
  max_residual : float;
  pivot_min : float;
  pivot_max : float;
  dt_stress : float;
  stressed_substeps : int;
}

type result = {
  trace : Trace.t;
  stats : stats;
  matrix_dim : int;
  newton : newton option;
}

(* Newton convergence test on the update norm: converged once
   ||x_k - x_{k-1}||_inf <= rtol * ||x_k||_inf + atol. *)
let newton_rtol = 1e-6
let newton_atol = 1e-12

(* A substep is dt-stressed when the state moves by more than half its
   own magnitude within that single substep — for first-order dynamics
   that means the internal step h is no longer small against the local
   time constant. *)
let stress_threshold = 0.5

(* The number of reporting steps of a whole run. *)
let reporting_steps ~dt ~t_stop =
  if dt <= 0.0 then invalid_arg "Engine: dt must be positive";
  if t_stop < dt then invalid_arg "Engine: t_stop shorter than one step";
  int_of_float (Float.round (t_stop /. dt))

(* For each input slot of [sys], the position of its signal in [names]
   (the first one, on duplicates). *)
let slot_positions who sys names =
  Array.map
    (fun u ->
      let rec find i = function
        | [] -> invalid_arg (who ^ ": no stimulus bound to input " ^ u)
        | n :: rest -> if n = u then i else find (i + 1) rest
      in
      find 0 names)
    (System.inputs sys)

(* The input sampler of a whole run: fills [slots] with the [inputs]
   stimuli at a time point, [positions] as from {!slot_positions}. *)
let sampler inputs positions slots =
  let stims = Array.map (fun i -> snd (List.nth inputs i)) positions in
  fun t ->
    for i = 0 to Array.length stims - 1 do
      slots.(i) <- stims.(i) t
    done

(* Factor cache of the fast fidelity: the sparse symbolic factorisation
   is computed once per topology, and the numeric factors are reused
   across Newton passes and substeps until the timestep or the
   piecewise-linear region selection changes. A numerically stale pivot
   (Sparse.Singular out of [refactor]) triggers one re-analysis with
   fresh pivoting before the failure is surfaced as the same
   [Matrix.Singular] as the paper path raises. *)
module Fast_cache = struct
  type t = {
    sys : System.t;
    npwl : int;
    mutable symbolic : Sparse.symbolic option;
    mutable lu : Sparse.lu option;
    mutable h : float;
    regions : bool array;  (* region selection the cached LU was stamped with *)
    scratch : bool array;
  }

  let create sys =
    {
      sys;
      npwl = System.pwl_count sys;
      symbolic = None;
      lu = None;
      h = nan;
      regions = Array.make (System.pwl_count sys) false;
      scratch = Array.make (System.pwl_count sys) false;
    }

  (* Selects the regions of [state] into [scratch]; true if they are
     the ones the cached LU was stamped with. *)
  let same_regions c state =
    System.pwl_regions_into c.sys state ~regions:c.scratch;
    let same = ref true in
    for i = 0 to c.npwl - 1 do
      if c.scratch.(i) <> c.regions.(i) then same := false
    done;
    !same

  (* The cached factors, if the system stamped at [state] with timestep
     [h] would produce them again. *)
  let cached c ~state ~h =
    if same_regions c state && c.h = h then c.lu else None

  let restamp c ~state ~h =
    let triplets = System.stamp_triplets ~state c.sys ~h in
    let analyze () =
      let sym = Sparse.analyze ~n:(System.size c.sys) triplets in
      c.symbolic <- Some sym;
      Sparse.refactor sym triplets
    in
    let lu =
      try
        match c.symbolic with
        | Some sym -> (
            (* Reused pivots may have gone numerically stale. *)
            try Sparse.refactor sym triplets
            with Sparse.Singular _ -> analyze ())
        | None -> analyze ()
      with Sparse.Singular k -> raise (Matrix.Singular k)
    in
    c.h <- h;
    Array.blit c.scratch 0 c.regions 0 c.npwl;
    c.lu <- Some lu;
    lu
end

(* Substep controller thresholds for the fast path: refine (double the
   substep count and redo the reporting step) when the second-difference
   LTE proxy crosses [lte_refine] or a substep is dt-stressed; relax
   (halve) when the whole step stayed comfortably below the band. *)
let lte_refine = 0.05
let lte_relax = lte_refine /. 8.0

(* Control quantities of the last Newton loop and substep. An all-float
   record, so updating it never allocates. *)
type scan = {
  mutable delta : float;  (* last Newton update norm *)
  mutable stress : float;  (* relative state motion over the last substep *)
  mutable step_stress : float;  (* maxima over the current reporting step *)
  mutable step_lte : float;
}

(* Solver state shared by the whole-run engine and the stepper. The
   work counters accumulate until [flush] hands them to the registry. *)
type state = {
  sys : System.t;
  dt : float;
  substeps : int;
  iterations : int;
  cache : Fast_cache.t option;  (* [None] = paper fidelity *)
  inputs : float array;  (* input values by slot, for the current substep *)
  rhs : float array;
  x : float array;  (* the last accepted substep's solution *)
  xm1 : float array;  (* one substep back, for the LTE proxy *)
  xa : float array;  (* the fast path's Newton iterates alternate here *)
  xb : float array;
  x_save : float array;  (* [x] and [xm1] at the start of a step that *)
  xm1_save : float array;  (* may be redone with more substeps *)
  mutable nsub : int;  (* substeps per reporting step (adaptive if fast) *)
  mutable step : int;  (* reporting steps taken *)
  sc : scan;
  mutable device_evals : int;
  mutable factorizations : int;
  mutable solves : int;
  mutable rhs_builds : int;
}

(* Convergence telemetry accumulator. The paper path only computes the
   update norm and the stress when one is passed; the fast path needs
   them for control anyway, so its whole-run driver always passes one. *)
type telemetry = {
  journal : bool;  (* emit events and the residual histogram *)
  mutable total_iters : int;
  mutable wasted_iters : int;
  mutable max_residual : float;
  mutable pivot_min : float;
  mutable pivot_max : float;
  mutable dt_stress : float;
  mutable stressed_substeps : int;
  mutable converged_at : int;  (* of the last substep *)
  step_decades : int array;  (* steps by decade of their final norm *)
  step_converged : int array;  (* steps by [converged_at] *)
}

let create_state ~substeps ~iterations ~fidelity circuit ~dt =
  let sys = System.build circuit in
  let n = System.size sys in
  {
    sys;
    dt;
    substeps;
    iterations;
    cache =
      (match fidelity with
      | `Paper -> None
      | `Fast -> Some (Fast_cache.create sys));
    inputs = Array.make (Array.length (System.inputs sys)) 0.0;
    rhs = Array.make n 0.0;
    x = Array.make n 0.0;
    xm1 = Array.make n 0.0;
    xa = Array.make n 0.0;
    xb = Array.make n 0.0;
    x_save = Array.make n 0.0;
    xm1_save = Array.make n 0.0;
    nsub = substeps;
    step = 0;
    sc = { delta = 0.0; stress = 0.0; step_stress = 0.0; step_lte = 0.0 };
    device_evals = 0;
    factorizations = 0;
    solves = 0;
    rhs_builds = 0;
  }

(* Hand the work counters to the registry and zero them. *)
let flush st ~steps =
  Obs.Counter.add c_steps steps;
  Obs.Counter.add c_device_evals st.device_evals;
  Obs.Counter.add c_factorizations st.factorizations;
  Obs.Counter.add c_solves st.solves;
  Obs.Counter.add c_rhs_builds st.rhs_builds;
  st.device_evals <- 0;
  st.factorizations <- 0;
  st.solves <- 0;
  st.rhs_builds <- 0

let build_rhs st ~h =
  System.stamp_rhs st.sys ~h ~state:st.x ~inputs:st.inputs ~rhs:st.rhs;
  st.rhs_builds <- st.rhs_builds + 1

let record_pivots tl (mn, mx) =
  if mn < tl.pivot_min then tl.pivot_min <- mn;
  if mx > tl.pivot_max then tl.pivot_max <- mx

(* One solver pass from iterate [prev]: the paper path re-stamps the
   dense system (and its RHS) and re-factors it — the SPICE cost model;
   the fast path reuses the cached sparse factors and solves into
   whichever of [xa]/[xb] is not [prev]. *)
let solve_pass st tel ~h ~t ~last prev =
  try
    match st.cache with
    | None ->
        let m = System.stamp_matrix ~state:prev st.sys ~h in
        st.device_evals <- st.device_evals + 1;
        build_rhs st ~h;
        let lu = Matrix.lu_factor m in
        st.factorizations <- st.factorizations + 1;
        (* Conditioning proxy sampled on the final pass only: the
           re-stamped matrix drifts little between passes, and the
           diagonal scan is a third of the telemetry's cost. *)
        (match tel with
        | Some tl when last -> record_pivots tl (Matrix.pivot_range lu)
        | _ -> ());
        Matrix.lu_solve lu st.rhs
    | Some c ->
        let lu =
          match Fast_cache.cached c ~state:prev ~h with
          | Some lu -> lu
          | None ->
              st.device_evals <- st.device_evals + 1;
              let lu = Fast_cache.restamp c ~state:prev ~h in
              st.factorizations <- st.factorizations + 1;
              lu
        in
        (match tel with
        | Some tl -> record_pivots tl (Sparse.pivot_range lu)
        | None -> ());
        let x = if prev == st.xa then st.xb else st.xa in
        Sparse.lu_solve_into lu ~b:st.rhs ~x;
        x
  with Matrix.Singular k ->
    (match tel with
    | Some tl when tl.journal ->
        Journal.emit ~severity:Journal.Error ~step:st.step ~time:t ~cat:"mna"
          "singular_pivot"
          [ ("column", Journal.I k); ("dim", Journal.I (Array.length st.rhs)) ]
    | _ -> ());
    raise (Matrix.Singular k)

(* Newton convergence on the update norm: records ||xn - prev||_inf in
   [sc.delta] and tests it against rtol * ||xn||_inf + atol. *)
let update_converged sc prev xn =
  let delta = ref 0.0 and scale = ref 0.0 in
  for i = 0 to Array.length xn - 1 do
    let d = abs_float (xn.(i) -. prev.(i)) in
    if d > !delta then delta := d;
    let m = abs_float xn.(i) in
    if m > !scale then scale := m
  done;
  sc.delta <- !delta;
  !delta <= (newton_rtol *. !scale) +. newton_atol

(* Stress (relative motion over the substep x0 -> x1) and the LTE proxy
   (scaled second difference, ~ h^2/2 * |x''|), with their maxima over
   the reporting step; true if the substep crossed the refinement band. *)
let scan_motion sc ~xm ~x0 ~x1 =
  let stress = ref 0.0 and lte = ref 0.0 in
  for i = 0 to Array.length x0 - 1 do
    let m = Float.max (abs_float x0.(i)) (abs_float x1.(i)) in
    if m > newton_atol then begin
      let r = abs_float (x1.(i) -. x0.(i)) /. m in
      if r > !stress then stress := r;
      let l = abs_float (x1.(i) -. (2.0 *. x0.(i)) +. xm.(i)) /. (2.0 *. m) in
      if l > !lte then lte := l
    end
  done;
  sc.stress <- !stress;
  if !stress > sc.step_stress then sc.step_stress <- !stress;
  if !lte > sc.step_lte then sc.step_lte <- !lte;
  !lte > lte_refine || !stress > stress_threshold

(* The Newton loop of one substep ending at [t]: from the substep-start
   state [st.x], which it leaves in place; returns the final iterate.
   The paper path runs the fixed [iterations] budget and measures
   convergence only for telemetry; the fast path needs one pass for a
   linear network and otherwise exits once the update norm is inside
   tolerance and the region selection the factors were stamped with
   still holds. *)
let newton st tel ~h ~t =
  let fast = Option.is_some st.cache in
  (* The fast RHS depends only on the substep-start state and the
     input, so one build serves every pass. *)
  if fast then build_rhs st ~h;
  let exact = match st.cache with Some c -> c.npwl = 0 | None -> false in
  let max_iters = if exact then 1 else st.iterations in
  let x_next = ref st.x and iter = ref 0 in
  let converged_at = ref 0 and stop = ref false in
  while (not !stop) && !iter < max_iters do
    incr iter;
    let prev = !x_next in
    x_next := solve_pass st tel ~h ~t ~last:(!iter = max_iters) prev;
    st.solves <- st.solves + 1;
    (* A linear network's one solve is exact: its update norm against
       the substep-start state would measure state motion. *)
    if exact then (st.sc.delta <- 0.0; converged_at := 1)
    else if
      (fast || Option.is_some tel)
      && update_converged st.sc prev !x_next
      && !converged_at = 0
      &&
      match st.cache with
      | Some c -> Fast_cache.same_regions c !x_next
      | None -> true
    then begin
      converged_at := !iter;
      stop := fast
    end
  done;
  (match tel with
  | Some tl ->
      (* Passes taken after the update norm already met tolerance. *)
      let wasted = if !converged_at > 0 then !iter - !converged_at else 0 in
      tl.total_iters <- tl.total_iters + !iter;
      tl.wasted_iters <- tl.wasted_iters + wasted;
      if tl.journal then Obs.Histogram.observe h_newton_residual st.sc.delta;
      if st.sc.delta > tl.max_residual then tl.max_residual <- st.sc.delta;
      tl.converged_at <- !converged_at
  | None -> ());
  !x_next

(* One reporting step. [sample t] sets [st.inputs] for substep time
   [t]: the whole-run engine samples its stimuli there, the stepper
   holds the values it was handed for the whole step. The fast path
   redoes the step with twice the substeps when a substep crosses the
   error band (while refinement headroom remains), and halves the
   count after a step that stayed comfortably inside it. *)
let advance st tel ~sample =
  let fast = Option.is_some st.cache in
  let solves0 = st.solves and ns_used = ref st.nsub and redone = ref 0 in
  st.step <- st.step + 1;
  let t_end = float_of_int st.step *. st.dt in
  let t_base = float_of_int (st.step - 1) *. st.dt in
  let n = Array.length st.x in
  (* Only a step started below the substep ceiling can be redone. *)
  if fast && st.nsub < st.substeps then begin
    Array.blit st.x 0 st.x_save 0 n;
    Array.blit st.xm1 0 st.xm1_save 0 n
  end;
  let retry = ref true in
  while !retry do
    retry := false;
    let ns = st.nsub in
    ns_used := ns;
    let h = st.dt /. float_of_int ns in
    st.sc.step_stress <- 0.0;
    st.sc.step_lte <- 0.0;
    let aborted = ref false and sub = ref 1 in
    while (not !aborted) && !sub <= ns do
      (* The last substep lands exactly on the reporting instant, so
         stimulus edges are sampled at the same points as by the
         fixed-step engines (no knife-edge drift on square waves). *)
      let t =
        if !sub = ns then t_end else t_base +. (float_of_int !sub *. h)
      in
      sample t;
      let x_next = newton st tel ~h ~t in
      let crossed =
        (fast || Option.is_some tel)
        && scan_motion st.sc ~xm:st.xm1 ~x0:st.x ~x1:x_next
      in
      if fast && crossed && ns < st.substeps then aborted := true
      else begin
        (match tel with
        | Some tl ->
            if st.sc.stress > tl.dt_stress then tl.dt_stress <- st.sc.stress;
            if st.sc.stress > stress_threshold then
              tl.stressed_substeps <- tl.stressed_substeps + 1
        | None -> ());
        Array.blit st.x 0 st.xm1 0 n;
        Array.blit x_next 0 st.x 0 n;
        incr sub
      end
    done;
    if !aborted then begin
      Array.blit st.x_save 0 st.x 0 n;
      Array.blit st.xm1_save 0 st.xm1 0 n;
      st.nsub <- min st.substeps (ns * 2);
      incr redone;
      retry := true
    end
    else if
      fast
      && st.sc.step_lte < lte_relax
      && st.sc.step_stress < stress_threshold /. 2.0
      && ns > 1
    then st.nsub <- ns / 2
  done;
  Obs.Histogram.observe h_solver_passes (float_of_int (st.solves - solves0));
  match tel with
  | Some tl when tl.journal ->
      let d = Obs.Histogram.bucket h_newton_residual st.sc.delta in
      tl.step_decades.(d) <- tl.step_decades.(d) + 1;
      tl.step_converged.(tl.converged_at) <-
        tl.step_converged.(tl.converged_at) + 1;
      (* Only anomalous steps are journaled one by one; newton.run
         carries the counts of all of them. *)
      if
        tl.converged_at = 0 || !redone > 0
        || st.sc.step_stress > stress_threshold
      then
        Journal.emit ~step:st.step ~time:t_end ~cat:"mna" "newton.step"
          [
            ("residual", Journal.F st.sc.delta);
            ("converged_at", Journal.I tl.converged_at);
            ("stress", Journal.F st.sc.step_stress);
            ("nsub", Journal.I !ns_used);
            ("redone", Journal.I !redone);
          ]
  | _ -> ()

(* The run's journal summaries and the [newton] result record. *)
let summarize st tl ~nsteps =
  Obs.Counter.add c_newton_wasted tl.wasted_iters;
  if tl.journal then begin
    let pivot_ratio =
      if tl.pivot_min > 0.0 && tl.pivot_min < infinity then
        tl.pivot_max /. tl.pivot_min
      else infinity
    in
    if pivot_ratio > 1e12 then
      Journal.emit ~severity:Journal.Warn ~cat:"mna" "conditioning"
        [
          ("pivot_min", Journal.F tl.pivot_min);
          ("pivot_max", Journal.F tl.pivot_max);
          ("pivot_ratio", Journal.F pivot_ratio);
        ];
    if tl.stressed_substeps > 0 then
      Journal.emit ~severity:Journal.Warn ~cat:"mna" "dt_stress"
        [
          ("max_rel_change", Journal.F tl.dt_stress);
          ("stressed_substeps", Journal.I tl.stressed_substeps);
          ("dt", Journal.F st.dt);
          ("substeps", Journal.I st.substeps);
        ];
    Journal.emit ~cat:"mna" "newton.run"
      ([
        ("steps", Journal.I nsteps);
        ("total_iters", Journal.I tl.total_iters);
        ("wasted_iters", Journal.I tl.wasted_iters);
        ("max_residual", Journal.F tl.max_residual);
        ("pivot_min", Journal.F tl.pivot_min);
        ("pivot_max", Journal.F tl.pivot_max);
        ("dt_stress", Journal.F tl.dt_stress);
        ("dim", Journal.I (System.size st.sys));
      ]
      (* Flat per-step counts: every residual decade, keyed by its
         upper bound, and every pass some step converged at. *)
      @ List.map2
          (fun le n -> (Printf.sprintf "residual_le_%g" le, Journal.I n))
          (Array.to_list residual_decades @ [ infinity ])
          (Array.to_list tl.step_decades)
      @ List.filter
          (fun (_, n) -> n <> Journal.I 0)
          (List.mapi
             (fun k n -> (Printf.sprintf "converged_at_%d" k, Journal.I n))
             (Array.to_list tl.step_converged)))
  end;
  ({
     total_iters = tl.total_iters;
     wasted_iters = tl.wasted_iters;
     max_residual = tl.max_residual;
     pivot_min = tl.pivot_min;
     pivot_max = tl.pivot_max;
     dt_stress = tl.dt_stress;
     stressed_substeps = tl.stressed_substeps;
   }
    : newton)

let check_budget who ~substeps ~iterations =
  if substeps < 1 || iterations < 1 then
    invalid_arg (who ^ ": substeps and iterations must be >= 1")

(* The whole-run loop of both engines: [advance t] takes the state to
   the reporting instant [t], [output ()] reads the output quantity on
   it and [read] any quantity. Records the output (and calls [observe])
   at t = 0 and after every step. *)
let drive ?observe ~dt ~nsteps ~read ~output advance =
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  let record t =
    Trace.add trace ~time:t ~value:(output ());
    match observe with None -> () | Some f -> f t read
  in
  record 0.0;
  for step = 1 to nsteps do
    let t = float_of_int step *. dt in
    advance t;
    record t
  done;
  trace

let spice_like ?(substeps = 8) ?(iterations = 3) ?(fidelity = `Paper) ?observe
    circuit ~inputs ~output ~dt ~t_stop =
  let nsteps = reporting_steps ~dt ~t_stop in
  check_budget "Engine.spice_like" ~substeps ~iterations;
  Obs.with_span ~cat:"mna" "mna.spice_like" @@ fun () ->
  let st = create_state ~substeps ~iterations ~fidelity circuit ~dt in
  let journal = Journal.enabled () in
  let tel =
    if journal || fidelity = `Fast then
      Some
        {
          journal;
          total_iters = 0;
          wasted_iters = 0;
          max_residual = 0.0;
          pivot_min = infinity;
          pivot_max = 0.0;
          dt_stress = 0.0;
          stressed_substeps = 0;
          converged_at = 0;
          step_decades = Array.make (Array.length residual_decades + 1) 0;
          step_converged = Array.make (iterations + 1) 0;
        }
    else None
  in
  let sample =
    sampler inputs
      (slot_positions "Engine" st.sys (List.map fst inputs))
      st.inputs
  in
  let out = System.locate st.sys output in
  let trace =
    drive ?observe ~dt ~nsteps
      ~read:(fun v -> System.read (System.locate st.sys v) st.x)
      ~output:(fun () -> System.read out st.x)
      (fun _ -> advance st tel ~sample)
  in
  let stats =
    {
      steps = nsteps;
      device_evals = st.device_evals;
      factorizations = st.factorizations;
      solves = st.solves;
    }
  in
  flush st ~steps:nsteps;
  let n = System.size st.sys in
  Obs.Gauge.set g_matrix_dim (float_of_int n);
  let newton = Option.map (fun tl -> summarize st tl ~nsteps) tel in
  { trace; stats; matrix_dim = n; newton }

(* A stepper tick: copy [values] (ordered as the [declared] inputs)
   into the slot array through [positions]. *)
let hold who ~declared ~positions ~slots values =
  if Array.length values <> declared then
    invalid_arg
      (Printf.sprintf "%s.step: expected %d input(s), got %d" who declared
         (Array.length values));
  for i = 0 to Array.length positions - 1 do
    slots.(i) <- values.(positions.(i))
  done

module Eln_stepper = struct
  type t = {
    sys : System.t;
    lu : Sparse.lu;  (* the dense factor's nonzeros *)
    dt : float;
    declared : int;  (* number of declared inputs *)
    positions : int array;  (* declared position of each slot's input *)
    inputs : float array;  (* input values by slot *)
    out_loc : System.locator;
    x : float array;
    rhs : float array;
    mutable out : float;
  }

  let create circuit ~inputs ~output ~dt =
    if dt <= 0.0 then invalid_arg "Eln_stepper: dt must be positive";
    if Amsvp_netlist.Circuit.has_pwl circuit then
      invalid_arg "Eln_stepper: the linear-network engine cannot simulate \
                   piecewise-linear devices";
    let sys = System.build circuit in
    let n = System.size sys in
    let positions = slot_positions "Eln_stepper" sys inputs in
    let out_loc = System.locate sys output in
    (* Linear fixed-step network: assemble and factor exactly once, with
       dense partial pivoting; each step then substitutes over the
       factor's nonzero entries only. *)
    let lu =
      Sparse.of_dense (Matrix.lu_factor (System.stamp_matrix sys ~h:dt))
    in
    Obs.Counter.incr c_device_evals;
    Obs.Counter.incr c_factorizations;
    {
      sys;
      lu;
      dt;
      declared = List.length inputs;
      positions;
      inputs = Array.make (Array.length positions) 0.0;
      out_loc;
      x = Array.make n 0.0;
      rhs = Array.make n 0.0;
      out = 0.0;
    }

  (* One step from the input values already in [st.inputs]. *)
  let advance st =
    System.stamp_rhs st.sys ~h:st.dt ~state:st.x ~inputs:st.inputs ~rhs:st.rhs;
    (* Solving in place is safe: the RHS already carries all the solve
       needs of the old state. *)
    Sparse.lu_solve_into st.lu ~b:st.rhs ~x:st.x;
    Obs.Counter.incr c_steps;
    Obs.Counter.incr c_solves;
    Obs.Counter.incr c_rhs_builds;
    st.out <- System.read st.out_loc st.x;
    st.out

  let step st ~input_values =
    hold "Eln_stepper" ~declared:st.declared ~positions:st.positions
      ~slots:st.inputs input_values;
    advance st

  let read st v = System.read (System.locate st.sys v) st.x
end

let eln_like circuit ~inputs ~output ~dt ~t_stop =
  let nsteps = reporting_steps ~dt ~t_stop in
  Obs.with_span ~cat:"mna" "mna.eln_like" @@ fun () ->
  let st =
    Eln_stepper.create circuit ~inputs:(List.map fst inputs) ~output ~dt
  in
  let sample = sampler inputs st.positions st.inputs in
  let trace =
    drive ~dt ~nsteps ~read:(Eln_stepper.read st)
      ~output:(fun () -> System.read st.out_loc st.x)
      (fun t ->
        sample t;
        ignore (Eln_stepper.advance st))
  in
  let n = System.size st.sys in
  Obs.Gauge.set g_matrix_dim (float_of_int n);
  if Journal.enabled () then begin
    let mn, mx = Sparse.pivot_range st.lu in
    Journal.emit ~cat:"mna" "eln.run"
      [
        ("steps", Journal.I nsteps);
        ("solves", Journal.I nsteps);
        ("pivot_min", Journal.F mn);
        ("pivot_max", Journal.F mx);
        ("dim", Journal.I n);
      ]
  end;
  {
    trace;
    stats =
      { steps = nsteps; device_evals = 1; factorizations = 1; solves = nsteps };
    matrix_dim = n;
    newton = None;
  }

module Spice_stepper = struct
  (* The fast path's factor cache and adaptive substep count live in
     [st] and so persist across ticks — symbolic reuse is what makes
     lock-step co-simulation cheap. No telemetry: steppers run inside a
     DE kernel, whose host owns observability. *)
  type t = {
    st : state;
    declared : int;  (* number of declared inputs *)
    positions : int array;  (* declared position of each slot's input *)
    out_loc : System.locator;
  }

  let create ?(substeps = 8) ?(iterations = 3) ?(fidelity = `Paper) circuit
      ~inputs ~output ~dt =
    if dt <= 0.0 then invalid_arg "Spice_stepper: dt must be positive";
    check_budget "Spice_stepper" ~substeps ~iterations;
    let st = create_state ~substeps ~iterations ~fidelity circuit ~dt in
    {
      st;
      declared = List.length inputs;
      positions = slot_positions "Spice_stepper" st.sys inputs;
      out_loc = System.locate st.sys output;
    }

  let read s v = System.read (System.locate s.st.sys v) s.st.x
  let output s = System.read s.out_loc s.st.x

  (* The inputs are held over the substeps: nothing to sample. *)
  let held _ = ()

  let step s ~input_values =
    hold "Spice_stepper" ~declared:s.declared ~positions:s.positions
      ~slots:s.st.inputs input_values;
    advance s.st None ~sample:held;
    flush s.st ~steps:1;
    output s
end

let run_testcase_spice ?substeps ?iterations ?fidelity
    (tc : Circuits.testcase) ~dt ~t_stop =
  spice_like ?substeps ?iterations ?fidelity tc.circuit ~inputs:tc.stimuli
    ~output:tc.output ~dt ~t_stop

let run_testcase_eln (tc : Circuits.testcase) ~dt ~t_stop =
  eln_like tc.circuit ~inputs:tc.stimuli ~output:tc.output ~dt ~t_stop
