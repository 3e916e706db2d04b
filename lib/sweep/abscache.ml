module Circuit = Amsvp_netlist.Circuit
module Flow = Amsvp_core.Flow
module Acquisition = Amsvp_core.Acquisition
module Eqmap = Amsvp_core.Eqmap
module Assemble = Amsvp_core.Assemble
module Solve = Amsvp_core.Solve
module Check = Amsvp_core.Check
module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile

type entry = { var : Expr.var; via : int; kind : [ `Cur | `Der ] }

type t = {
  key : string;
  name : string;
  dt : float;
  mode : Solve.mode;
  integration : Solve.integration;
  inputs : string list;
  outputs : Expr.var list;
  n_dipoles : int;
  topo : Eqn.t array;  (** KCL/KVL origins; index is [class_id - n_dipoles] *)
  entries : entry list;  (** dependencies first, like [Assemble.defs] *)
  template : Compile.t option;
      (** bytecode compiled once from the representative's solved
          program in [`Template] mode; {!compiled_for} re-targets it at
          each rebound point so plan replay also skips compilation *)
}

let record_plan ?(mode = `Auto) ?(integration = `Backward_euler) ?spans ~name
    ~dt circuit ~outputs =
  (* The flow up to assemble, gated like [Flow.abstract_circuit]: a
     defective sweep model is rejected here, once, with a located
     finding — before any scenario point is expanded. The plan solves
     the representative itself, in [build]. *)
  let s =
    Flow.run ~name ~mode ~integration ?spans ~solve:false circuit ~outputs ~dt
  in
  Check.gate s.Flow.findings;
  let inputs = Circuit.input_signals circuit in
  let acq, map = Option.get s.Flow.enriched in
  let asm = Option.get s.Flow.assembled in
  let n_dipoles = List.length acq.Acquisition.dipoles in
  let topo =
    Array.init
      (Eqmap.class_count map - n_dipoles)
      (fun i -> Eqmap.origin_of_class map (n_dipoles + i))
  in
  let entries =
    List.map
      (fun (d : Assemble.definition) ->
        {
          var = d.var;
          via = d.via;
          kind = (if d.integrates then `Der else `Cur);
        })
      asm.Assemble.defs
  in
  {
    key = Circuit.structure_key circuit;
    name;
    dt;
    mode;
    integration;
    inputs;
    outputs;
    n_dipoles;
    topo;
    entries;
    template = None;
  }

let key t = t.key
let definitions t = List.length t.entries

exception Replay_failed

let rebind t circuit =
  if not (String.equal (Circuit.structure_key circuit) t.key) then None
  else begin
    let dipoles = Array.of_list (Circuit.dipole_equations circuit) in
    let origin via =
      if via < t.n_dipoles then dipoles.(via) else t.topo.(via - t.n_dipoles)
    in
    let define e =
      let eqn = origin e.via in
      let pseudo =
        match e.kind with `Cur -> Eqn.Cur e.var | `Der -> Eqn.Der e.var
      in
      let rhs =
        match Eqn.solve_for pseudo eqn with
        | Some rhs -> rhs
        | None -> (
            (* Mirror of the Eqmap.add_equation special case: a
               piecewise-linear equation with a bare quantity on the
               left defines it directly. *)
            match (e.kind, eqn.Eqn.lhs) with
            | `Cur, Expr.Var v
              when v.Expr.delay = 0 && Expr.equal_var v e.var ->
                eqn.Eqn.rhs
            | _ -> raise Replay_failed)
      in
      match e.kind with
      | `Cur ->
          {
            Assemble.var = e.var;
            raw = rhs;
            via = e.via;
            integrates = false;
            deriv = None;
          }
      | `Der ->
          {
            Assemble.var = e.var;
            raw =
              Expr.(
                var (Expr.delayed e.var 1) + (var Expr.dt_param * rhs));
            via = e.via;
            integrates = true;
            deriv = Some rhs;
          }
    in
    match
      let defs = List.map define t.entries in
      let asm =
        { Assemble.defs; outputs = t.outputs; inputs = t.inputs }
      in
      Solve.solve ~mode:t.mode ~integration:t.integration ~name:t.name
        ~dt:t.dt asm
    with
    | program -> Some program
    | exception (Replay_failed | Solve.Nonlinear _ | Solve.Underdetermined _)
      ->
        None
  end

let build ?mode ?integration ?spans ~name ~dt circuit ~outputs =
  let t = record_plan ?mode ?integration ?spans ~name ~dt circuit ~outputs in
  (* Solve the representative once so the plan also carries a compiled
     template: rebound points share its schedule and registers and only
     patch the constant pool. Computed here, before any worker is
     forked, so the cache stays immutable afterwards. *)
  let template =
    match rebind t circuit with
    | Some p -> Some (Sfprogram.compile ~mode:`Template p)
    | None -> None
  in
  { t with template }

let compiled_for t program =
  match t.template with
  | None -> None
  | Some tpl -> Sfprogram.rebind_compiled tpl program
