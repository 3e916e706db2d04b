module Json = Amsvp_util.Json
module Sfprogram = Amsvp_sf.Sfprogram

type provenance =
  | From_class of {
      class_id : int;
      origin : Eqn.t;
      defines : Eqn.pseudo;
      disabled : Eqmap.variant list;
    }
  | Direct

type choice = {
  target : Expr.var;
  rhs : Expr.t;
  integrates : bool;
  provenance : provenance;
}

type t = {
  model : string;
  dt : float;
  requested_mode : Solve.mode;
  plan : Solve.plan;
  inputs : string list;
  outputs : Expr.var list;
  classes_total : int;
  choices : choice list;
}

let of_abstraction ~name ~dt ~mode map (asm : Assemble.result)
    (plan : Solve.plan) =
  let choices =
    List.map
      (fun (d : Assemble.definition) ->
        let defines =
          if d.Assemble.integrates then Eqn.Der d.Assemble.var
          else Eqn.Cur d.Assemble.var
        in
        let disabled =
          List.filter
            (fun (v : Eqmap.variant) ->
              Eqn.compare_pseudo v.Eqmap.defines defines <> 0)
            (Eqmap.variants_of_class map d.Assemble.via)
        in
        {
          target = d.Assemble.var;
          rhs =
            (match d.Assemble.deriv with
            | Some rhs when d.Assemble.integrates -> rhs
            | _ -> d.Assemble.raw);
          integrates = d.Assemble.integrates;
          provenance =
            From_class
              {
                class_id = d.Assemble.via;
                origin = Eqmap.origin_of_class map d.Assemble.via;
                defines;
                disabled;
              };
        })
      asm.Assemble.defs
  in
  {
    model = name;
    dt;
    requested_mode = mode;
    plan;
    inputs = asm.Assemble.inputs;
    outputs = asm.Assemble.outputs;
    classes_total = Eqmap.class_count map;
    choices;
  }

let of_signal_flow (p : Sfprogram.t) =
  {
    model = p.Sfprogram.name;
    dt = p.Sfprogram.dt;
    requested_mode = `Exact;
    plan =
      {
        Solve.effective_mode = `Exact;
        integration_used = `Backward_euler;
        lagged = [];
        eliminations = [];
        regions = 1;
        ddt_aux = 0;
      };
    inputs = p.Sfprogram.inputs;
    outputs = p.Sfprogram.outputs;
    classes_total = 0;
    choices =
      List.map
        (fun (a : Sfprogram.assignment) ->
          {
            target = a.Sfprogram.target;
            rhs = a.Sfprogram.expr;
            integrates = false;
            provenance = Direct;
          })
        p.Sfprogram.assignments;
  }

let mode_label : Solve.mode -> string = function
  | `Auto -> "auto"
  | `Exact -> "exact"
  | `Relaxed -> "relaxed"

let integration_label : Solve.integration -> string = function
  | `Backward_euler -> "backward-euler"
  | `Trapezoidal -> "trapezoidal"

let origin_label (o : Eqn.origin) =
  match o with
  | Eqn.Dipole d -> "dipole " ^ d
  | Eqn.Kcl n -> "kcl " ^ n
  | Eqn.Kvl i -> Printf.sprintf "kvl %d" i
  | Eqn.Derived -> "derived"
  | Eqn.Explicit -> "explicit"

(* ---- JSON ---- *)

let to_json e =
  let plan = e.plan in
  let open Json in
  let int i = Num (float_of_int i) in
  let names vs = Arr (List.map (fun v -> Str (Expr.var_name v)) vs) in
  let variant (v : Eqmap.variant) =
    Obj
      [ ("defines", Str (Eqn.pseudo_name v.Eqmap.defines));
        ("rhs", Str (Expr.to_string v.Eqmap.rhs)) ]
  in
  let variable c =
    let lhs =
      if c.integrates then "ddt(" ^ Expr.var_name c.target ^ ")"
      else Expr.var_name c.target
    in
    Obj
      ([ ("var", Str (Expr.var_name c.target));
         ("integrates", Bool c.integrates);
         ("equation", Str (lhs ^ " = " ^ Expr.to_string c.rhs)) ]
      @
      match c.provenance with
      | Direct -> [ ("source", Str "direct") ]
      | From_class { class_id; origin; defines; disabled } ->
          [ ("source", Str "class"); ("class", int class_id);
            ("origin", Str (origin_label origin.Eqn.origin));
            ("defines", Str (Eqn.pseudo_name defines));
            ("disabled", Arr (List.map variant disabled)) ])
  in
  let pivot (p : Solve.pivot) =
    Obj
      [ ("var", Str (Expr.var_name p.Solve.pivot_var));
        ("magnitude", Num p.Solve.pivot_mag) ]
  in
  let elimination (el : Solve.elimination) =
    Obj
      [ ("members", names el.Solve.members);
        ("pivots", Arr (List.map pivot el.Solve.pivots)) ]
  in
  print
    (Obj
       [ ("model", Str e.model); ("dt", Num e.dt);
         ("mode", Str (mode_label e.requested_mode));
         ( "effective_mode",
           Str (mode_label (plan.Solve.effective_mode :> Solve.mode)) );
         ("integration", Str (integration_label plan.Solve.integration_used));
         ("regions", int plan.Solve.regions);
         ("ddt_aux", int plan.Solve.ddt_aux);
         ("classes", int e.classes_total);
         ("cone", int (List.length e.choices));
         ("inputs", Arr (List.map (fun i -> Str i) e.inputs));
         ("outputs", names e.outputs); ("lagged", names plan.Solve.lagged);
         ("eliminations", Arr (List.map elimination plan.Solve.eliminations));
         ("variables", Arr (List.map variable e.choices)) ])

(* ---- pretty text ---- *)

let pp ppf e =
  let plan = e.plan in
  Format.fprintf ppf "@[<v>abstraction plan for %s (dt=%g)@," e.model e.dt;
  Format.fprintf ppf
    "mode: %s (effective %s), integration: %s, regions: %d%s@,"
    (mode_label e.requested_mode)
    (mode_label (plan.Solve.effective_mode :> Solve.mode))
    (integration_label plan.Solve.integration_used)
    plan.Solve.regions
    (if plan.Solve.ddt_aux > 0 then
       Printf.sprintf ", ddt auxiliaries: %d" plan.Solve.ddt_aux
     else "");
  Format.fprintf ppf "cone of influence: %d of %d equation classes@,"
    (List.length e.choices) e.classes_total;
  Format.fprintf ppf "inputs: %s@," (String.concat ", " e.inputs);
  Format.fprintf ppf "outputs: %s@,"
    (String.concat ", " (List.map Expr.var_name e.outputs));
  if plan.Solve.lagged <> [] then
    Format.fprintf ppf "relaxation lagged: %s@,"
      (String.concat ", " (List.map Expr.var_name plan.Solve.lagged));
  List.iter
    (fun (el : Solve.elimination) ->
      Format.fprintf ppf "eliminated component {%s} pivots [%s]@,"
        (String.concat ", " (List.map Expr.var_name el.Solve.members))
        (String.concat ", "
           (List.map
              (fun (p : Solve.pivot) ->
                Printf.sprintf "%s:%.3g"
                  (Expr.var_name p.Solve.pivot_var)
                  p.Solve.pivot_mag)
              el.Solve.pivots)))
    plan.Solve.eliminations;
  List.iter
    (fun c ->
      let lhs =
        if c.integrates then "ddt(" ^ Expr.var_name c.target ^ ")"
        else Expr.var_name c.target
      in
      (match c.provenance with
      | Direct ->
          Format.fprintf ppf "@,%s = %a@,  (explicit signal-flow)" lhs
            Expr.pp c.rhs
      | From_class { class_id; origin; defines; disabled } ->
          Format.fprintf ppf "@,%s = %a@,  chosen for %s from class %d (%s)"
            lhs Expr.pp c.rhs
            (Eqn.pseudo_name defines)
            class_id
            (origin_label origin.Eqn.origin);
          if disabled <> [] then
            Format.fprintf ppf "@,  disables: %s"
              (String.concat "; "
                 (List.map
                    (fun (v : Eqmap.variant) ->
                      Printf.sprintf "%s = %s"
                        (Eqn.pseudo_name v.Eqmap.defines)
                        (Expr.to_string v.Eqmap.rhs))
                    disabled))))
    e.choices;
  Format.fprintf ppf "@]"

let to_text e = Format.asprintf "%a" pp e
