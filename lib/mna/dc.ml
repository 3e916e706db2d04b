module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component

type solution = { circuit : Circuit.t; sys : System.t; x : float array }

(* The GMIN conductance standing in for an open capacitor, keeping
   otherwise-floating nodes weakly tied. *)
let gmin_resistance = 1e12

let dc_equivalent ?(inputs = []) circuit =
  let dc = Circuit.create ~ground:(Circuit.ground circuit) () in
  List.iter
    (fun (d : Component.t) ->
      let resolve = function
        | Component.Dc v -> Component.Dc v
        | Component.Input u -> (
            match List.assoc_opt u inputs with
            | Some v -> Component.Dc v
            | None -> Component.Dc 0.0)
      in
      let kind =
        match d.kind with
        | Component.Capacitor _ -> Component.Resistor gmin_resistance
        | Component.Inductor _ -> Component.Vsource (Component.Dc 0.0)
        | Component.Vsource s -> Component.Vsource (resolve s)
        | Component.Isource s -> Component.Isource (resolve s)
        | (Component.Resistor _ | Component.Vcvs _ | Component.Vccs _
          | Component.Pwl_conductance _) as k ->
            k
      in
      Circuit.add dc (Component.make ~name:d.name ~pos:d.pos ~neg:d.neg kind))
    (Circuit.devices circuit);
  dc

exception No_fixed_point of int

(* Region iterations before the search is declared unsettled. *)
let max_region_passes = 50

let operating_point ?inputs circuit =
  let dc = dc_equivalent ?inputs circuit in
  let sys = System.build dc in
  let n = System.size sys in
  let rhs = Array.make n 0.0 in
  (* Every input is resolved to a DC level: the equivalent has no slots. *)
  System.stamp_rhs sys ~h:1.0 ~state:(Array.make n 0.0) ~inputs:[||] ~rhs;
  let x = ref (Array.make n 0.0) in
  let solve state =
    Matrix.lu_solve (Matrix.lu_factor (System.stamp_matrix ~state sys ~h:1.0)) rhs
  in
  (* Region iteration for piecewise-linear devices (a trivial single
     pass for linear networks). *)
  let rec iterate k =
    if k > max_region_passes then raise (No_fixed_point max_region_passes);
    let x' = solve !x in
    let moved =
      let acc = ref 0.0 in
      Array.iteri (fun i v -> acc := max !acc (abs_float (v -. !x.(i)))) x';
      !acc
    in
    x := x';
    if moved > 1e-9 then iterate (k + 1)
  in
  iterate 1;
  { circuit = dc; sys; x = !x }

let read s v = System.read (System.locate s.sys v) s.x

let voltage s node =
  if not (List.mem node (Circuit.nodes s.circuit)) then
    invalid_arg ("Dc.voltage: unknown node " ^ node);
  read s (Expr.potential node (Circuit.ground s.circuit))

let current s name =
  match Circuit.find s.circuit name with
  | None -> invalid_arg ("Dc.current: unknown device " ^ name)
  | Some _ -> read s (Expr.flow name "")

let pp ppf s =
  Format.fprintf ppf "@[<v>operating point:@,";
  List.iter
    (fun n ->
      if n <> Circuit.ground s.circuit then
        Format.fprintf ppf "  V(%s) = %.9g V@," n (voltage s n))
    (Circuit.nodes s.circuit);
  List.iter
    (fun (d : Component.t) ->
      match d.kind with
      | Component.Vsource _ | Component.Vcvs _ ->
          Format.fprintf ppf "  I(%s) = %.9g A@," d.name (current s d.name)
      | Component.Resistor _ | Component.Capacitor _ | Component.Inductor _
      | Component.Isource _ | Component.Vccs _ | Component.Pwl_conductance _
        ->
          ())
    (Circuit.devices s.circuit);
  Format.fprintf ppf "@]"
