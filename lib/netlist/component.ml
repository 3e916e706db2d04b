type source = Dc of float | Input of string

type kind =
  | Resistor of float
  | Capacitor of float
  | Inductor of float
  | Vsource of source
  | Isource of source
  | Vcvs of { gain : float; ctrl_pos : string; ctrl_neg : string }
  | Vccs of { gm : float; ctrl_pos : string; ctrl_neg : string }
  | Pwl_conductance of { g_on : float; g_off : float; threshold : float }

type t = { name : string; pos : string; neg : string; kind : kind }

let make ~name ~pos ~neg kind =
  if name = "" then invalid_arg "Component.make: empty name";
  if pos = neg then
    invalid_arg
      (Printf.sprintf "Component.make: device %s is a self-loop on node %s"
         name pos);
  { name; pos; neg; kind }

let kind_name = function
  | Resistor _ -> "resistor"
  | Capacitor _ -> "capacitor"
  | Inductor _ -> "inductor"
  | Vsource _ -> "voltage source"
  | Isource _ -> "current source"
  | Vcvs _ -> "voltage-controlled voltage source"
  | Vccs _ -> "voltage-controlled current source"
  | Pwl_conductance _ -> "piecewise-linear conductance"

let flow_var d = Expr.flow d.name ""
let potential_var d = Expr.potential d.pos d.neg

let source_expr = function
  | Dc v -> Expr.const v
  | Input u -> Expr.var (Expr.signal u)

let dipole_equation d =
  let vb = Expr.var (potential_var d) and ib = Expr.var (flow_var d) in
  let lhs, rhs =
    match d.kind with
    | Resistor r -> (vb, Expr.scale r ib)
    | Capacitor c -> (ib, Expr.scale c (Expr.Ddt vb))
    | Inductor l -> (vb, Expr.scale l (Expr.Ddt ib))
    | Vsource s -> (vb, source_expr s)
    | Isource s -> (ib, source_expr s)
    | Vcvs { gain; ctrl_pos; ctrl_neg } ->
        (vb, Expr.scale gain (Expr.var (Expr.potential ctrl_pos ctrl_neg)))
    | Vccs { gm; ctrl_pos; ctrl_neg } ->
        (ib, Expr.scale gm (Expr.var (Expr.potential ctrl_pos ctrl_neg)))
    | Pwl_conductance { g_on; g_off; threshold } ->
        ( ib,
          Expr.Cond
            ( Expr.Cmp (Expr.Ge, vb, Expr.const threshold),
              Expr.scale g_on vb,
              Expr.scale g_off vb ) )
  in
  Eqn.make (Eqn.Dipole d.name) ~lhs ~rhs

let params d =
  match d.kind with
  | Resistor r -> [ ("r", r) ]
  | Capacitor c -> [ ("c", c) ]
  | Inductor l -> [ ("l", l) ]
  | Vsource (Dc v) | Isource (Dc v) -> [ ("dc", v) ]
  | Vsource (Input _) | Isource (Input _) -> []
  | Vcvs { gain; _ } -> [ ("gain", gain) ]
  | Vccs { gm; _ } -> [ ("gm", gm) ]
  | Pwl_conductance { g_on; g_off; threshold } ->
      [ ("g_on", g_on); ("g_off", g_off); ("threshold", threshold) ]

let with_param d p v =
  let unknown () =
    invalid_arg
      (Printf.sprintf "Component.with_param: device %s has no parameter %s"
         d.name p)
  in
  let kind =
    match (d.kind, p) with
    | Resistor _, "r" -> Resistor v
    | Capacitor _, "c" -> Capacitor v
    | Inductor _, "l" -> Inductor v
    | Vsource (Dc _), "dc" -> Vsource (Dc v)
    | Isource (Dc _), "dc" -> Isource (Dc v)
    | Vcvs c, "gain" -> Vcvs { c with gain = v }
    | Vccs c, "gm" -> Vccs { c with gm = v }
    | Pwl_conductance c, "g_on" -> Pwl_conductance { c with g_on = v }
    | Pwl_conductance c, "g_off" -> Pwl_conductance { c with g_off = v }
    | Pwl_conductance c, "threshold" -> Pwl_conductance { c with threshold = v }
    | _ -> unknown ()
  in
  { d with kind }

let structure_tag d =
  let kind =
    match d.kind with
    | Resistor _ -> "R"
    | Capacitor _ -> "C"
    | Inductor _ -> "L"
    | Vsource (Dc _) -> "Vdc"
    | Vsource (Input u) -> "Vin:" ^ u
    | Isource (Dc _) -> "Idc"
    | Isource (Input u) -> "Iin:" ^ u
    | Vcvs { ctrl_pos; ctrl_neg; _ } ->
        Printf.sprintf "E(%s,%s)" ctrl_pos ctrl_neg
    | Vccs { ctrl_pos; ctrl_neg; _ } ->
        Printf.sprintf "G(%s,%s)" ctrl_pos ctrl_neg
    | Pwl_conductance _ -> "PWL"
  in
  Printf.sprintf "%s[%s](%s,%s)" d.name kind d.pos d.neg

let input_signals d =
  match d.kind with
  | Vsource (Input u) | Isource (Input u) -> [ u ]
  | Vsource (Dc _) | Isource (Dc _) | Resistor _ | Capacitor _ | Inductor _
  | Vcvs _ | Vccs _ | Pwl_conductance _ ->
      []

let pp_kind ppf = function
  | Resistor r -> Format.fprintf ppf "R=%g" r
  | Capacitor c -> Format.fprintf ppf "C=%g" c
  | Inductor l -> Format.fprintf ppf "L=%g" l
  | Vsource (Dc v) -> Format.fprintf ppf "V=%g" v
  | Vsource (Input u) -> Format.fprintf ppf "V=input(%s)" u
  | Isource (Dc v) -> Format.fprintf ppf "I=%g" v
  | Isource (Input u) -> Format.fprintf ppf "I=input(%s)" u
  | Vcvs { gain; ctrl_pos; ctrl_neg } ->
      Format.fprintf ppf "VCVS gain=%g ctrl=(%s,%s)" gain ctrl_pos ctrl_neg
  | Vccs { gm; ctrl_pos; ctrl_neg } ->
      Format.fprintf ppf "VCCS gm=%g ctrl=(%s,%s)" gm ctrl_pos ctrl_neg
  | Pwl_conductance { g_on; g_off; threshold } ->
      Format.fprintf ppf "PWL g_on=%g g_off=%g thr=%g" g_on g_off threshold

let pp ppf d =
  Format.fprintf ppf "%s (%s -> %s) %a" d.name d.pos d.neg pp_kind d.kind
