module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component

type device = {
  component : Component.t;
  pos : int;
  neg : int;
  branch : int;
  ctrl_pos : int;
  ctrl_neg : int;
  slot : int;
}

(* What a device adds to the right-hand side: a backward-Euler history
   term or a source value. *)
type rhs_op =
  | Cap_history  (* [c/h * v] into the terminals *)
  | Current  (* a source current out of [a], into [b] *)
  | Voltage  (* a source voltage in the branch row *)
  | Ind_history  (* [-(l/h) * i] in the branch row *)

(* The RHS plan: one entry per device that contributes to the RHS, in
   device order (so the sums accumulate as a per-device loop's would),
   as parallel flat arrays. The companion coefficients [c/h] and
   [-(l/h)] are cached for the [h] they were last computed with. *)
type rhs_plan = {
  op : rhs_op array;
  pa : int array;  (* terminals, -1 for ground *)
  pb : int array;
  row : int array;  (* the branch row of a [Voltage]/[Ind_history] *)
  islot : int array;  (* the input slot of a source, -1 for a constant *)
  param : float array;  (* c, l, or a constant source's value *)
  coef : float array;  (* c/h or -(l/h) for [coef_h] *)
  mutable coef_h : float;
}

type t = {
  ground : string;
  node_index : (string, int) Hashtbl.t;  (* non-ground nodes -> 0.. *)
  by_name : (string, device) Hashtbl.t;
  devices : device array;
  pwl : (device * float) array;
      (* the piecewise-linear devices and their thresholds, in stamp order *)
  inputs : string array;  (* input signal of each slot *)
  size : int;
  plan : rhs_plan;
}

let needs_current_unknown (d : Component.t) =
  match d.kind with
  | Vsource _ | Inductor _ | Vcvs _ -> true
  | Resistor _ | Capacitor _ | Isource _ | Vccs _ | Pwl_conductance _ -> false

let rhs_plan devices =
  let const = function Component.Dc v -> v | Component.Input _ -> 0.0 in
  let entries =
    Array.of_list
      (List.filter_map
         (fun (d : device) ->
           match d.component.kind with
           | Resistor _ | Vccs _ | Pwl_conductance _ | Vcvs _ -> None
           | Capacitor c -> Some (d, Cap_history, c)
           | Isource src -> Some (d, Current, const src)
           | Vsource src -> Some (d, Voltage, const src)
           | Inductor l -> Some (d, Ind_history, l))
         (Array.to_list devices))
  in
  let dev f = Array.map (fun (d, _, _) -> f d) entries in
  {
    op = Array.map (fun (_, op, _) -> op) entries;
    pa = dev (fun d -> d.pos);
    pb = dev (fun d -> d.neg);
    row = dev (fun d -> d.branch);
    islot = dev (fun d -> d.slot);
    param = Array.map (fun (_, _, v) -> v) entries;
    coef = Array.make (Array.length entries) 0.0;
    coef_h = nan;
  }

(* Every name is looked up here, once: the per-step paths below only
   index arrays. *)
let build circuit =
  (match Circuit.validate circuit with
  | Ok () -> ()
  | Error msg -> invalid_arg ("System.build: " ^ msg));
  let ground = Circuit.ground circuit in
  let node_index = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.add node_index n i)
    (List.filter (fun n -> n <> ground) (Circuit.nodes circuit));
  let nid n = match Hashtbl.find_opt node_index n with Some i -> i | None -> -1 in
  let inputs = Array.of_list (Circuit.input_signals circuit) in
  let slot_of u =
    let rec find i = if inputs.(i) = u then i else find (i + 1) in
    find 0
  in
  let next = ref (Hashtbl.length node_index) in
  let resolve (d : Component.t) =
    let branch =
      if needs_current_unknown d then begin
        incr next;
        !next - 1
      end
      else -1
    in
    let ctrl_pos, ctrl_neg =
      match d.kind with
      | Vcvs { ctrl_pos; ctrl_neg; _ } | Vccs { ctrl_pos; ctrl_neg; _ } ->
          (nid ctrl_pos, nid ctrl_neg)
      | _ -> (-1, -1)
    in
    let slot =
      match d.kind with
      | Vsource (Input u) | Isource (Input u) -> slot_of u
      | _ -> -1
    in
    { component = d; pos = nid d.pos; neg = nid d.neg; branch; ctrl_pos;
      ctrl_neg; slot }
  in
  let devices = Array.of_list (List.map resolve (Circuit.devices circuit)) in
  let by_name = Hashtbl.create 16 in
  Array.iter (fun d -> Hashtbl.add by_name d.component.name d) devices;
  let pwl =
    Array.of_list
      (List.filter_map
         (fun d ->
           match d.component.kind with
           | Pwl_conductance { threshold; _ } -> Some (d, threshold)
           | _ -> None)
         (Array.to_list devices))
  in
  { ground; node_index; by_name; devices; pwl; inputs; size = !next;
    plan = rhs_plan devices }

let size s = s.size
let devices s = s.devices
let inputs s = s.inputs
let pwl_count s = Array.length s.pwl

(* Inlined, so that the per-step loops read the state unboxed. *)
let[@inline] node_value (state : float array) i =
  if i < 0 then 0.0 else state.(i)

let[@inline] branch_voltage state d =
  node_value state d.pos -. node_value state d.neg

(* Stamping through an abstract accumulator so that both the dense and
   the sparse back-ends share the device models. *)
let stamp_into ?state s ~h ~add =
  let state = match state with Some x -> x | None -> Array.make s.size 0.0 in
  let stamp_conductance i j g =
    if i >= 0 then add i i g;
    if j >= 0 then add j j g;
    if i >= 0 && j >= 0 then begin
      add i j (-.g);
      add j i (-.g)
    end
  in
  (* The branch-current coupling of a device with a current unknown. *)
  let stamp_branch a b k =
    if a >= 0 then begin
      add a k 1.0;
      add k a 1.0
    end;
    if b >= 0 then begin
      add b k (-1.0);
      add k b (-1.0)
    end
  in
  Array.iter
    (fun d ->
      let a = d.pos and b = d.neg in
      match d.component.kind with
      | Resistor r -> stamp_conductance a b (1.0 /. r)
      | Pwl_conductance { g_on; g_off; threshold } ->
          (* Region selected by the current solution estimate: the
             SPICE-like engine re-stamps at every pass, so the region
             follows the Newton iteration. *)
          let v = branch_voltage state d in
          stamp_conductance a b (if v >= threshold then g_on else g_off)
      | Capacitor c -> stamp_conductance a b (c /. h)
      | Isource _ -> ()
      | Vccs { gm; _ } ->
          let cp = d.ctrl_pos and cn = d.ctrl_neg in
          let addc i j v = if i >= 0 && j >= 0 then add i j v in
          addc a cp gm;
          addc a cn (-.gm);
          addc b cp (-.gm);
          addc b cn gm
      | Vsource _ -> stamp_branch a b d.branch
      | Vcvs { gain; _ } ->
          let k = d.branch in
          stamp_branch a b k;
          if d.ctrl_pos >= 0 then add k d.ctrl_pos (-.gain);
          if d.ctrl_neg >= 0 then add k d.ctrl_neg gain
      | Inductor l ->
          let k = d.branch in
          stamp_branch a b k;
          add k k (-.(l /. h)))
    s.devices

let pwl_regions_into s state ~regions =
  for i = 0 to Array.length s.pwl - 1 do
    let d, threshold = s.pwl.(i) in
    regions.(i) <- branch_voltage state d >= threshold
  done

let stamp_matrix ?state s ~h =
  let m = Matrix.create s.size in
  stamp_into ?state s ~h ~add:(fun i j v -> Matrix.add_to m i j v);
  m

let stamp_triplets ?state s ~h =
  let acc = ref [] in
  stamp_into ?state s ~h ~add:(fun i j v -> acc := (i, j, v) :: !acc);
  !acc

let[@inline] source_value p inputs e =
  if p.islot.(e) >= 0 then inputs.(p.islot.(e)) else p.param.(e)

(* Runs once per step (per solver pass on the paper path): a plain
   loop over the plan, so a call allocates nothing. The coefficients
   are recomputed only when [h] differs from the cached one (the fast
   path's adaptive substeps change it). *)
let stamp_rhs s ~h ~state ~inputs ~rhs =
  let p = s.plan in
  if h <> p.coef_h then begin
    for e = 0 to Array.length p.op - 1 do
      match p.op.(e) with
      | Cap_history -> p.coef.(e) <- p.param.(e) /. h
      | Ind_history -> p.coef.(e) <- -.(p.param.(e) /. h)
      | Current | Voltage -> ()
    done;
    p.coef_h <- h
  end;
  Array.fill rhs 0 (Array.length rhs) 0.0;
  for e = 0 to Array.length p.op - 1 do
    let a = p.pa.(e) and b = p.pb.(e) in
    match p.op.(e) with
    | Cap_history ->
        (* History current of the backward-Euler companion model. *)
        let ieq = p.coef.(e) *. (node_value state a -. node_value state b) in
        if a >= 0 then rhs.(a) <- rhs.(a) +. ieq;
        if b >= 0 then rhs.(b) <- rhs.(b) -. ieq
    | Current ->
        let j = source_value p inputs e in
        if a >= 0 then rhs.(a) <- rhs.(a) -. j;
        if b >= 0 then rhs.(b) <- rhs.(b) +. j
    | Voltage -> rhs.(p.row.(e)) <- source_value p inputs e
    | Ind_history ->
        let k = p.row.(e) in
        rhs.(k) <- p.coef.(e) *. state.(k)
  done

type locator =
  | Potential of int * int
  | Branch of int
  | Resistor_flow of int * int * float

let locate s v =
  if v.Expr.delay <> 0 then invalid_arg "System.locate: delayed quantity";
  match v.Expr.base with
  | Expr.Potential (a, b) ->
      (* An unknown node reads as ground, like the ground node itself. *)
      let node n = Option.value ~default:(-1) (Hashtbl.find_opt s.node_index n) in
      Potential (node a, node b)
  | Expr.Flow (name, "") -> (
      match Hashtbl.find_opt s.by_name name with
      | Some { branch; _ } when branch >= 0 -> Branch branch
      | Some { component = { kind = Resistor r; _ }; pos; neg; _ } ->
          Resistor_flow (pos, neg, r)
      | Some _ ->
          invalid_arg ("System.locate: no current unknown for device " ^ name)
      | None -> invalid_arg ("System.locate: unknown device " ^ name))
  | Expr.Flow _ | Expr.Signal _ | Expr.Param _ ->
      invalid_arg "System.locate: unsupported quantity"

let probe_refusal s ~circuit (v : Expr.var) =
  let has_node n = n = s.ground || Hashtbl.mem s.node_index n in
  let refuse fmt =
    Printf.ksprintf Option.some ("probe %s " ^^ fmt) (Expr.var_name v)
  in
  let unknown () = refuse "names no quantity of the circuit %s" circuit in
  match v.Expr.base with
  | _ when v.Expr.delay <> 0 -> unknown ()
  | Expr.Potential (a, b) ->
      if has_node a && has_node b then None else unknown ()
  | Expr.Flow (name, "") -> (
      match Hashtbl.find_opt s.by_name name with
      | None -> unknown ()
      | Some d -> (
          match locate s v with
          | _ -> None
          | exception Invalid_argument _ ->
              refuse
                "names the %s %s of the circuit %s, for which the solver \
                 keeps no current"
                (Component.kind_name d.component.kind)
                name circuit))
  | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> unknown ()

let read loc state =
  match loc with
  | Potential (a, b) -> node_value state a -. node_value state b
  | Branch k -> state.(k)
  | Resistor_flow (a, b, r) -> (node_value state a -. node_value state b) /. r
