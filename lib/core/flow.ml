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
let insert_probes circuit ~outputs =
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

type spans = {
  of_subject : string -> Diag.span option;
  of_var : Expr.var -> Diag.span option;
}

type stages = {
  findings : Diag.finding list;
  enriched : (Acquisition.t * Eqmap.t) option;
  assembled : Assemble.result option;
  solved : report option;
}

(* A source loop or current-source cutset (AMS022/AMS023) makes the
   equation system singular by construction: the equation stages would
   only repeat it. *)
let blocking =
  List.exists (fun f ->
      f.Diag.severity = Diag.Error
      && (f.Diag.code = "AMS022" || f.Diag.code = "AMS023"))

(* The resolver is forced only for a finding that names a subject or a
   quantity and has no span yet. *)
let span_of_var spans v =
  match spans with Some (lazy s) -> s.of_var v | None -> None

let locate spans f =
  match (f.Diag.span, f.Diag.subject, spans) with
  | None, Some subject, Some spans ->
      Option.fold ~none:f ~some:(Diag.with_span f)
        ((Lazy.force spans).of_subject subject)
  | _ -> f

exception Stopped

let run ?(name = "abstracted") ?(mode = `Auto)
    ?(integration = `Backward_euler) ?spans ?(solve = true) ?continue_with
    circuit ~outputs ~dt =
  let span_of = span_of_var spans in
  match insert_probes circuit ~outputs with
  | exception Invalid_argument msg ->
      (* An output over a node the circuit does not have: there is
         nothing to abstract. *)
      {
        findings = [ Diag.error "AMS030" msg ];
        enriched = None;
        assembled = None;
        solved = None;
      }
  | probed ->
  (* Pre-flight gate: a malformed topology stops the run with located
     findings instead of letting a deep solver exception surface. *)
  let topology = List.map (locate spans) (Circuit.diagnose probed) in
  let s =
    ref { findings = topology; enriched = None; assembled = None; solved = None }
  in
  let add fs = s := { !s with findings = !s.findings @ fs } in
  (* Structural matching is necessary but not sufficient: a degenerate
     topology can pass the gates and still leave Assemble or Solve
     without a usable pivot, and [Invalid_argument] is a structurally
     invalid circuit the topology pass did not name. Those late failures
     become located findings too, so every way abstraction can fail
     speaks the same language. *)
  let stage label f =
    let failed = function
      | Assemble.No_definition v ->
          Diag.error ?span:(span_of v) ~subject:(Expr.var_name v) "AMS030"
            (Printf.sprintf "no consistent set of equations defines %s"
               (Expr.var_name v))
      | Solve.Underdetermined msg ->
          Diag.error "AMS030" (Printf.sprintf "underdetermined system (%s)" msg)
      | Solve.Nonlinear v ->
          Diag.error ?span:(span_of v) ~subject:(Expr.var_name v) "AMS042"
            (Printf.sprintf
               "nonlinear definition for %s (outside the linear scope)"
               (Expr.var_name v))
      | Invalid_argument msg -> Diag.error "AMS030" msg
      | e -> raise e
    in
    match timed label f with
    | r -> r
    | exception e ->
        add [ failed e ];
        raise Stopped
  in
  let next =
    match continue_with with
    | None ->
        if Diag.error_count topology > 0 then None else Some (probed, outputs)
    | Some continue_with ->
        if blocking topology then None
        else
          let circuit, outputs = continue_with circuit in
          if Circuit.device_count circuit = 0 then None
          else Some (insert_probes circuit ~outputs, outputs)
  in
  (match next with
  | None -> ()
  | Some (circuit, outputs) -> (
      try
        let acq, acquisition_s =
          stage "flow.acquisition" (fun () -> Acquisition.of_circuit circuit)
        in
        let (map, stats), enrichment_s =
          stage "flow.enrich" (fun () -> Enrich.enrich acq)
        in
        s := { !s with enriched = Some (acq, map) };
        let solvability = Check.solvability ~span_of map ~outputs in
        add solvability;
        if Diag.error_count solvability > 0 then raise Stopped;
        let inputs = Circuit.input_signals circuit in
        let asm, assemble_s =
          stage "flow.assemble" (fun () ->
              Assemble.assemble map ~inputs ~outputs)
        in
        s := { !s with assembled = Some asm };
        if solve then
          let (program, plan), solve_s =
            stage "flow.solve" (fun () ->
                Solve.solve_with_plan ~mode ~integration ~name ~dt asm)
          in
          let report =
            {
              program;
              nodes = Graph.node_count acq.Acquisition.graph;
              branches = Graph.branch_count acq.Acquisition.graph;
              classes = Eqmap.class_count map;
              variants = stats.Enrich.variants;
              definitions = List.length asm.Assemble.defs;
              explain = Explain.of_abstraction ~name ~dt ~mode map asm plan;
              acquisition_s;
              enrichment_s;
              assemble_s;
              solve_s;
            }
          in
          s := { !s with solved = Some report }
      with Stopped -> ()));
  !s

let abstract_circuit ?(name = "abstracted") ?mode ?integration ?spans
    circuit ~outputs ~dt =
  if outputs = [] then invalid_arg "Flow: no outputs of interest";
  Obs.with_span ~cat:"flow" ~args:[ ("model", name) ] "flow.abstract"
  @@ fun () ->
  Obs.Counter.incr c_abstractions;
  let s = run ~name ?mode ?integration ?spans circuit ~outputs ~dt in
  Check.gate s.findings;
  (* A run without an error finding reached every stage. *)
  Option.get s.solved

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

(* The signal-flow route: the direct conversion with its failures as
   findings. A read of a quantity that is neither an input nor a target
   is reported for every such quantity, at the contribution that reads
   it; the conversion's own failures are fatal, as the route has no
   simultaneous solve to fall back on. *)
let signal_flow ~spans ~name ~inputs ~outputs ~contributions ~dt =
  let span_of = span_of_var (Some spans) in
  let targets =
    List.map (fun ((t : Expr.var), _) -> t.Expr.base) contributions
  in
  let is_defined (v : Expr.var) =
    match v.Expr.base with
    | Expr.Signal s -> List.mem s inputs
    | Expr.Param _ -> true
    | base -> List.mem base targets
  in
  let seen = Hashtbl.create 8 in
  let undefined =
    List.concat_map
      (fun (target, rhs) ->
        Expr.Var_set.elements (Expr.vars rhs)
        |> List.filter_map (fun (v : Expr.var) ->
               let q = Expr.var_name { v with Expr.delay = 0 } in
               if is_defined v || Hashtbl.mem seen q then None
               else begin
                 Hashtbl.replace seen q ();
                 Some
                   (Diag.error ?span:(span_of target) ~subject:q "AMS030"
                      (Printf.sprintf "quantity %s is read but never defined"
                         q))
               end))
      contributions
  in
  if undefined <> [] then Error undefined
  else
    match convert_signal_flow ~name ~inputs ~outputs ~contributions ~dt with
    | program -> Ok program
    | exception Sfprogram.Undefined msg -> Error [ Diag.error "AMS030" msg ]
    | exception Sfprogram.Read_before_assigned { reader; var } ->
        Error
          [
            Diag.error ?span:(span_of reader) ~subject:(Expr.var_name reader)
              "AMS040"
              (Sfprogram.read_before_assigned_message reader var);
          ]
    | exception Invalid_argument msg -> Error [ Diag.error "AMS040" msg ]
    | exception Solve.Underdetermined msg -> Error [ Diag.error "AMS030" msg ]
    | exception Solve.Nonlinear v ->
        Error
          [
            Diag.error ?span:(span_of v) ~subject:(Expr.var_name v) "AMS042"
              (Printf.sprintf
                 "nonlinear self-reference on %s is outside the linear \
                  abstraction scope"
                 (Expr.var_name v));
          ]

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>abstraction report: %d nodes, %d branches, %d classes, %d \
     variants, %d definitions@,timings: acquisition %.3fms, \
     enrichment %.3fms, assemble %.3fms, solve %.3fms@,%a@]"
    r.nodes r.branches r.classes r.variants r.definitions
    (r.acquisition_s *. 1e3) (r.enrichment_s *. 1e3) (r.assemble_s *. 1e3)
    (r.solve_s *. 1e3) Sfprogram.pp r.program
