module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Graph = Amsvp_netlist.Graph
module Circuits = Amsvp_netlist.Circuits
module Sfprogram = Amsvp_sf.Sfprogram
module Obs = Amsvp_obs.Obs
module Diag = Amsvp_diag.Diag

let c_abstractions =
  Obs.Counter.make ~help:"abstraction flow runs" "amsvp_flow_abstractions_total"

type report = {
  program : Sfprogram.t;
  nodes : int;
  branches : int;
  classes : int;
  variants : int;
  definitions : int;
  explain : Explain.t;
  acquisition_s : float;
  enrichment_s : float;
  assemble_s : float;
  solve_s : float;
}

let total_seconds r =
  r.acquisition_s +. r.enrichment_s +. r.assemble_s +. r.solve_s

(* Stage timings come from the span recorder's monotonic clock; the
   duration is returned even with the recorder off so [report] is always
   populated, and the span event is recorded when it is on. *)
let timed name f = Obs.timed ~cat:"flow" name f

(* A potential that must be observable — an output of interest, or the
   sensing pair of a controlled source — but is not the branch
   potential of any device is observed through an ideal voltmeter: a
   zero-current source between the two nodes, which adds the variable
   to the equation system without disturbing the network. *)
let with_probes circuit outputs =
  let devices = Circuit.devices circuit in
  let node_exists n = List.mem n (Circuit.nodes circuit) in
  let present (a, b) =
    List.exists (fun (d : Component.t) -> d.pos = a && d.neg = b) devices
  in
  let required_outputs =
    List.filter_map
      (fun (o : Expr.var) ->
        match o.Expr.base with
        | Expr.Potential (a, b) ->
            if node_exists a && node_exists b then Some (a, b)
            else
              invalid_arg
                (Printf.sprintf "Flow: output %s refers to unknown nodes"
                   (Expr.var_name o))
        | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> None)
      outputs
  in
  let required_controls =
    List.filter_map
      (fun (d : Component.t) ->
        match d.kind with
        | Component.Vcvs { ctrl_pos; ctrl_neg; _ }
        | Component.Vccs { ctrl_pos; ctrl_neg; _ } ->
            Some (ctrl_pos, ctrl_neg)
        | Component.Resistor _ | Component.Capacitor _ | Component.Inductor _
        | Component.Vsource _ | Component.Isource _
        | Component.Pwl_conductance _ ->
            None)
      devices
  in
  let missing =
    List.filter (fun pair -> not (present pair))
      (required_outputs @ required_controls)
    |> List.sort_uniq compare
  in
  if missing = [] then circuit
  else begin
    let c = Circuit.create ~ground:(Circuit.ground circuit) () in
    List.iter (Circuit.add c) devices;
    List.iteri
      (fun i (a, b) ->
        Circuit.add_isource c
          ~name:(Printf.sprintf "__probe%d" i)
          ~pos:a ~neg:b (Component.Dc 0.0))
      missing;
    c
  end

let insert_probes circuit ~outputs = with_probes circuit outputs

let abstract_circuit ?(name = "abstracted") ?(mode = `Auto)
    ?(integration = `Backward_euler) circuit ~outputs ~dt =
  if outputs = [] then invalid_arg "Flow: no outputs of interest";
  Obs.with_span ~cat:"flow" ~args:[ ("model", name) ] "flow.abstract"
  @@ fun () ->
  Obs.Counter.incr c_abstractions;
  let circuit = with_probes circuit outputs in
  (* Pre-flight gates: reject a malformed topology or a structurally
     singular system with a located Diag finding instead of letting a
     deep solver exception surface. *)
  Check.gate (Circuit.diagnose circuit);
  let inputs = Circuit.input_signals circuit in
  let acq, acquisition_s =
    timed "flow.acquisition" (fun () -> Acquisition.of_circuit circuit)
  in
  let (map, stats), enrichment_s =
    timed "flow.enrich" (fun () -> Enrich.enrich acq)
  in
  Check.gate (Check.solvability map ~outputs);
  (* Structural matching is necessary but not sufficient: a degenerate
     topology can pass the gates and still leave Assemble or Solve
     without a usable pivot. Those late failures become located Diag
     rejections too, so every way abstraction can fail speaks the same
     language. *)
  let asm, assemble_s =
    timed "flow.assemble" (fun () ->
        try Assemble.assemble map ~inputs ~outputs
        with Assemble.No_definition v ->
          raise
            (Diag.Rejected
               (Diag.error ~subject:(Expr.var_name v) "AMS030"
                  (Printf.sprintf "no consistent set of equations defines %s"
                     (Expr.var_name v)))))
  in
  let (program, plan), solve_s =
    timed "flow.solve" (fun () ->
        try Solve.solve_with_plan ~mode ~integration ~name ~dt asm with
        | Solve.Underdetermined msg ->
            raise
              (Diag.Rejected
                 (Diag.error "AMS030"
                    (Printf.sprintf "underdetermined system (%s)" msg)))
        | Solve.Nonlinear v ->
            raise
              (Diag.Rejected
                 (Diag.error ~subject:(Expr.var_name v) "AMS042"
                    (Printf.sprintf
                       "nonlinear definition for %s (outside the linear \
                        scope)"
                       (Expr.var_name v)))))
  in
  let explain = Explain.of_abstraction ~name ~dt ~mode map asm plan in
  {
    program;
    nodes = Graph.node_count acq.Acquisition.graph;
    branches = Graph.branch_count acq.Acquisition.graph;
    classes = Eqmap.class_count map;
    variants = stats.Enrich.variants;
    definitions = List.length asm.Assemble.defs;
    explain;
    acquisition_s;
    enrichment_s;
    assemble_s;
    solve_s;
  }

let abstract_testcase ?(mode = `Auto) ?(integration = `Backward_euler)
    (tc : Circuits.testcase) ~dt =
  abstract_circuit ~name:tc.Circuits.label ~mode ~integration
    tc.Circuits.circuit ~outputs:[ tc.Circuits.output ] ~dt

(* A discretised contribution may mention its own target at the current
   time (e.g. [V(out) <+ V(in) - tau*ddt(V(out))]): interpreting [=] as
   an assignment would be wrong, so the scalar linear equation is
   solved for the target exactly as in Fig. 7. *)
let solve_self_reference target expr =
  if not (Expr.contains_var target expr) then expr
  else
    match Expr.linear_form expr with
    | None -> raise (Solve.Nonlinear target)
    | Some (items, k) ->
        let a =
          match List.find_opt (fun (v, _) -> Expr.equal_var v target) items with
          | Some (_, c) -> c
          | None -> 0.0
        in
        let denom = 1.0 -. a in
        if abs_float denom < 1e-300 then
          raise
            (Solve.Underdetermined
               ("self-reference with unit coefficient on "
              ^ Expr.var_name target));
        let rest =
          List.filter (fun (v, _) -> not (Expr.equal_var v target)) items
        in
        Expr.simplify
          (Expr.of_linear_form
             (List.map (fun (v, c) -> (v, c /. denom)) rest, k /. denom))

let convert_signal_flow ~name ~inputs ~outputs ~contributions ~dt =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "__idt%d" !counter
  in
  let assignments =
    List.concat_map
      (fun (target, e) ->
        let e, accumulators = Expr.extract_idt ~fresh e in
        let finish tgt expr =
          let expr =
            Expr.subst
              (fun v ->
                if Expr.equal_var v Expr.dt_param then Some (Expr.const dt)
                else None)
              expr
          in
          solve_self_reference tgt (Expr.simplify (Expr.discretize ~dt expr))
        in
        List.map
          (fun (s, update) -> { Sfprogram.target = s; expr = finish s update })
          accumulators
        @ [ { Sfprogram.target; expr = finish target e } ])
      contributions
  in
  let program = { Sfprogram.name; inputs; outputs; assignments; dt } in
  Sfprogram.validate program;
  program

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>abstraction report: %d nodes, %d branches, %d classes, %d \
     variants, %d definitions@,timings: acquisition %.3fms, \
     enrichment %.3fms, assemble %.3fms, solve %.3fms@,%a@]"
    r.nodes r.branches r.classes r.variants r.definitions
    (r.acquisition_s *. 1e3) (r.enrichment_s *. 1e3) (r.assemble_s *. 1e3)
    (r.solve_s *. 1e3) Sfprogram.pp r.program
