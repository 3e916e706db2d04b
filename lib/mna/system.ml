module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component

type t = {
  circuit : Circuit.t;
  devices : Component.t array;
  node_index : (string, int) Hashtbl.t;  (* non-ground nodes -> 0.. *)
  current_index : (string, int) Hashtbl.t;  (* device name -> unknown *)
  nnodes : int;
  size : int;
}

let needs_current_unknown (d : Component.t) =
  match d.kind with
  | Vsource _ | Inductor _ | Vcvs _ -> true
  | Resistor _ | Capacitor _ | Isource _ | Vccs _ | Pwl_conductance _ -> false

let build circuit =
  (match Circuit.validate circuit with
  | Ok () -> ()
  | Error msg -> invalid_arg ("System.build: " ^ msg));
  let ground = Circuit.ground circuit in
  let node_index = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.add node_index n i)
    (List.filter (fun n -> n <> ground) (Circuit.nodes circuit));
  let nnodes = Hashtbl.length node_index in
  let devices = Array.of_list (Circuit.devices circuit) in
  let current_index = Hashtbl.create 8 in
  let next = ref nnodes in
  Array.iter
    (fun (d : Component.t) ->
      if needs_current_unknown d then begin
        Hashtbl.add current_index d.name !next;
        incr next
      end)
    devices;
  { circuit; devices; node_index; current_index; nnodes; size = !next }

let size s = s.size
let has_pwl s = Circuit.has_pwl s.circuit

(* Node index, or -1 for ground. *)
let nid s n = match Hashtbl.find_opt s.node_index n with Some i -> i | None -> -1

let node_value s state n =
  let i = nid s n in
  if i < 0 then 0.0 else state.(i)

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
  Array.iter
    (fun (d : Component.t) ->
      let a = nid s d.pos and b = nid s d.neg in
      match d.kind with
      | Resistor r -> stamp_conductance a b (1.0 /. r)
      | Pwl_conductance { g_on; g_off; threshold } ->
          (* Region selected by the current solution estimate: the
             SPICE-like engine re-stamps at every pass, so the region
             follows the Newton iteration. *)
          let v = node_value s state d.pos -. node_value s state d.neg in
          stamp_conductance a b (if v >= threshold then g_on else g_off)
      | Capacitor c -> stamp_conductance a b (c /. h)
      | Isource _ -> ()
      | Vccs { gm; ctrl_pos; ctrl_neg } ->
          let cp = nid s ctrl_pos and cn = nid s ctrl_neg in
          let addc i j v = if i >= 0 && j >= 0 then add i j v in
          addc a cp gm;
          addc a cn (-.gm);
          addc b cp (-.gm);
          addc b cn gm
      | Vsource _ ->
          let k = Hashtbl.find s.current_index d.name in
          if a >= 0 then begin
            add a k 1.0;
            add k a 1.0
          end;
          if b >= 0 then begin
            add b k (-1.0);
            add k b (-1.0)
          end
      | Vcvs { gain; ctrl_pos; ctrl_neg } ->
          let k = Hashtbl.find s.current_index d.name in
          if a >= 0 then begin
            add a k 1.0;
            add k a 1.0
          end;
          if b >= 0 then begin
            add b k (-1.0);
            add k b (-1.0)
          end;
          let cp = nid s ctrl_pos and cn = nid s ctrl_neg in
          if cp >= 0 then add k cp (-.gain);
          if cn >= 0 then add k cn gain
      | Inductor l ->
          let k = Hashtbl.find s.current_index d.name in
          if a >= 0 then begin
            add a k 1.0;
            add k a 1.0
          end;
          if b >= 0 then begin
            add b k (-1.0);
            add k b (-1.0)
          end;
          add k k (-.(l /. h)))
    s.devices

let pwl_count s =
  Array.fold_left
    (fun acc (d : Component.t) ->
      match d.kind with Pwl_conductance _ -> acc + 1 | _ -> acc)
    0 s.devices

let pwl_regions_into s state ~regions =
  let k = ref 0 in
  Array.iter
    (fun (d : Component.t) ->
      match d.kind with
      | Pwl_conductance { threshold; _ } ->
          let v = node_value s state d.pos -. node_value s state d.neg in
          regions.(!k) <- v >= threshold;
          incr k
      | _ -> ())
    s.devices

let stamp_matrix ?state s ~h =
  let m = Matrix.create s.size in
  stamp_into ?state s ~h ~add:(fun i j v -> Matrix.add_to m i j v);
  m

let stamp_triplets ?state s ~h =
  let acc = ref [] in
  stamp_into ?state s ~h ~add:(fun i j v -> acc := (i, j, v) :: !acc);
  !acc

let source_value input = function
  | Component.Dc v -> v
  | Component.Input u -> input u

let stamp_rhs s ~h ~state ~input ~rhs =
  Array.fill rhs 0 (Array.length rhs) 0.0;
  Array.iter
    (fun (d : Component.t) ->
      let a = nid s d.pos and b = nid s d.neg in
      match d.kind with
      | Resistor _ | Vccs _ | Pwl_conductance _ -> ()
      | Capacitor c ->
          (* History current of the backward-Euler companion model. *)
          let v_prev = node_value s state d.pos -. node_value s state d.neg in
          let ieq = c /. h *. v_prev in
          if a >= 0 then rhs.(a) <- rhs.(a) +. ieq;
          if b >= 0 then rhs.(b) <- rhs.(b) -. ieq
      | Isource src ->
          let j = source_value input src in
          if a >= 0 then rhs.(a) <- rhs.(a) -. j;
          if b >= 0 then rhs.(b) <- rhs.(b) +. j
      | Vsource src ->
          let k = Hashtbl.find s.current_index d.name in
          rhs.(k) <- source_value input src
      | Vcvs _ -> ()
      | Inductor l ->
          let k = Hashtbl.find s.current_index d.name in
          rhs.(k) <- -.(l /. h) *. state.(k))
    s.devices;
  ()

let output_value s v state =
  if v.Expr.delay <> 0 then
    invalid_arg "System.output_value: delayed quantity";
  match v.Expr.base with
  | Expr.Potential (a, b) -> node_value s state a -. node_value s state b
  | Expr.Flow (name, "") -> (
      match Hashtbl.find_opt s.current_index name with
      | Some k -> state.(k)
      | None -> (
          match Circuit.find s.circuit name with
          | Some { Component.kind = Component.Resistor r; pos; neg; _ } ->
              (node_value s state pos -. node_value s state neg) /. r
          | Some _ ->
              invalid_arg
                ("System.output_value: no current unknown for device " ^ name)
          | None -> invalid_arg ("System.output_value: unknown device " ^ name)))
  | Expr.Flow _ | Expr.Signal _ | Expr.Param _ ->
      invalid_arg "System.output_value: unsupported quantity"
