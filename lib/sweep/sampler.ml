module Rng = Amsvp_util.Rng

type point = {
  index : int;
  label : string;
  overrides : (string * float) list;
}

let grid_values lo hi n =
  if n = 1 then [ lo ]
  else
    List.init n (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

(* Fixed value list of a deterministic axis, [None] for Monte Carlo. *)
let fixed_values a =
  match a.Spec.range with
  | Spec.Grid { lo; hi; n } -> Some (grid_values lo hi n)
  | Spec.Values vs -> Some vs
  | Spec.Uniform _ | Spec.Normal _ -> None

(* Cartesian product over the deterministic axes, first axis slowest.
   Each combo maps an axis position to its fixed value; Monte Carlo
   positions are absent and filled per point. *)
let combos axes =
  let rec go pos = function
    | [] -> [ [] ]
    | a :: rest ->
        let tails = go (pos + 1) rest in
        (match fixed_values a with
        | None -> tails
        | Some vs ->
            List.concat_map
              (fun v -> List.map (fun tl -> (pos, v) :: tl) tails)
              vs)
  in
  go 0 axes

let points (spec : Spec.t) =
  let axes = Array.of_list spec.axes in
  let draws = if Spec.is_random spec then spec.samples else 1 in
  let acc = ref [] in
  let counter = ref 0 in
  let emit label overrides =
    let index = !counter in
    incr counter;
    acc := { index; label; overrides } :: !acc
  in
  List.iter
    (fun combo ->
      for _ = 1 to draws do
        let index = !counter in
        let rng = Rng.derive spec.seed ~stream:index in
        let overrides =
          Array.to_list
            (Array.mapi
               (fun pos a ->
                 let v =
                   match List.assoc_opt pos combo with
                   | Some v -> v
                   | None -> (
                       match a.Spec.range with
                       | Spec.Uniform { lo; hi } -> Rng.uniform rng ~lo ~hi
                       | Spec.Normal { mean; sigma } ->
                           Rng.normal rng ~mean ~sigma
                       | Spec.Grid _ | Spec.Values _ -> assert false)
                 in
                 (a.Spec.param, v))
               axes)
        in
        emit (Printf.sprintf "p%04d" index) overrides
      done)
    (combos spec.axes);
  List.iter (fun (c : Spec.corner) -> emit c.corner_name c.binds) spec.corners;
  List.rev !acc
