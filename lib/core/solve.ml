type mode = [ `Exact | `Relaxed | `Auto ]

type integration = [ `Backward_euler | `Trapezoidal ]

type fidelity = [ `Paper | `Fast ]

let modes = [ ("auto", `Auto); ("exact", `Exact); ("relaxed", `Relaxed) ]

let integrations =
  [ ("backward-euler", `Backward_euler); ("trapezoidal", `Trapezoidal) ]

let fidelities = [ ("paper", `Paper); ("fast", `Fast) ]
let name_of table v = fst (List.find (fun (_, w) -> w = v) table)

let auto_threshold = 16

exception Nonlinear of Expr.var
exception Underdetermined of string

(* The solver's decision record, kept for explainability: which
   concrete mode [`Auto] resolved to, which state variables the
   relaxation lagged, the Gauss-Jordan pivots of every eliminated
   component, how many PWL regions were enumerated and how many
   trapezoidal-differentiator auxiliaries were introduced. *)
type pivot = { pivot_var : Expr.var; pivot_mag : float }
type elimination = { members : Expr.var list; pivots : pivot list }

type plan = {
  effective_mode : [ `Exact | `Relaxed ];
  integration_used : integration;
  lagged : Expr.var list;
  eliminations : elimination list;
  regions : int;
  ddt_aux : int;
}

(* Substitute the reserved __dt parameter. *)
let bake_dt ~dt e =
  Expr.subst
    (fun v ->
      if Expr.equal_var v Expr.dt_param then Some (Expr.const dt) else None)
    e

(* Tarjan's strongly connected components; returns the components in
   reverse topological order of the condensation. *)
let tarjan n succ =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succ v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan emits each SCC before its successors' SCCs are closed...
     in fact it emits them in reverse topological order, so reversing
     the accumulator (which already re-reversed by consing) yields the
     dependency order. *)
  !sccs

(* Solve the subsystem formed by one strongly connected component by
   Gaussian elimination: members' definitions are affine in the member
   variables; every other symbol is a known. *)
let eliminate_component vars exprs members =
  let m = List.length members in
  let member_index v =
    let rec go i = function
      | [] -> None
      | j :: rest -> if Expr.equal_var vars.(j) v then Some i else go (i + 1) rest
    in
    go 0 members
  in
  (* Collect known symbols across the component. *)
  let knowns = ref [] in
  let known_index = Hashtbl.create 16 in
  let note v =
    let key = Expr.var_name v in
    if not (Hashtbl.mem known_index key) then begin
      Hashtbl.add known_index key (List.length !knowns);
      knowns := v :: !knowns
    end
  in
  List.iter
    (fun j ->
      Expr.Var_set.iter
        (fun v -> if member_index v = None then note v)
        (Expr.vars exprs.(j)))
    members;
  let knowns = Array.of_list (List.rev !knowns) in
  let nk = Array.length knowns in
  let a = Array.make_matrix m m 0.0 in
  let rhs = Array.make_matrix m (nk + 1) 0.0 in
  List.iteri
    (fun row j ->
      a.(row).(row) <- 1.0;
      match Expr.linear_form exprs.(j) with
      | None -> raise (Nonlinear vars.(j))
      | Some (items, k) ->
          rhs.(row).(nk) <- rhs.(row).(nk) +. k;
          List.iter
            (fun (v, c) ->
              match member_index v with
              | Some col -> a.(row).(col) <- a.(row).(col) -. c
              | None ->
                  let col = Hashtbl.find known_index (Expr.var_name v) in
                  rhs.(row).(col) <- rhs.(row).(col) +. c)
            items)
    members;
  (* Gauss-Jordan with partial pivoting. *)
  let pivots = ref [] in
  for col = 0 to m - 1 do
    let piv = ref col in
    for i = col + 1 to m - 1 do
      if abs_float a.(i).(col) > abs_float a.(!piv).(col) then piv := i
    done;
    if abs_float a.(!piv).(col) < 1e-300 then
      raise
        (Underdetermined
           (Printf.sprintf "no pivot for %s"
              (Expr.var_name vars.(List.nth members col))));
    pivots :=
      {
        pivot_var = vars.(List.nth members col);
        pivot_mag = abs_float a.(!piv).(col);
      }
      :: !pivots;
    if !piv <> col then begin
      let t = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- t;
      let t = rhs.(col) in
      rhs.(col) <- rhs.(!piv);
      rhs.(!piv) <- t
    end;
    let p = a.(col).(col) in
    for j = 0 to m - 1 do
      a.(col).(j) <- a.(col).(j) /. p
    done;
    for j = 0 to nk do
      rhs.(col).(j) <- rhs.(col).(j) /. p
    done;
    for i = 0 to m - 1 do
      if i <> col && a.(i).(col) <> 0.0 then begin
        let f = a.(i).(col) in
        for j = 0 to m - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(col).(j))
        done;
        for j = 0 to nk do
          rhs.(i).(j) <- rhs.(i).(j) -. (f *. rhs.(col).(j))
        done
      end
    done
  done;
  List.iteri
    (fun row j ->
      let r = rhs.(row) in
      let scale = Array.fold_left (fun acc v -> max acc (abs_float v)) 1.0 r in
      (* A non-finite coefficient means a poisoned parameter; keep it so it
         surfaces in the trace instead of being zeroed as "insignificant". *)
      let significant v = not (abs_float v <= 1e-12 *. scale) in
      let items = ref [] in
      for c = nk - 1 downto 0 do
        if significant r.(c) then items := (knowns.(c), r.(c)) :: !items
      done;
      let const = if significant r.(nk) then r.(nk) else 0.0 in
      exprs.(j) <- Expr.simplify (Expr.of_linear_form (!items, const)))
    members;
  { members = List.map (fun j -> vars.(j)) members; pivots = List.rev !pivots }

(* Piecewise-linear support: regions are the truth assignments of the
   distinct conditions occurring in the definitions. *)
let max_region_conditions = 4

let map_condition_exprs f c =
  let rec go = function
    | Expr.Cmp (op, a, b) -> Expr.Cmp (op, f a, f b)
    | Expr.And (c1, c2) -> Expr.And (go c1, go c2)
    | Expr.Or (c1, c2) -> Expr.Or (go c1, go c2)
    | Expr.Not c -> Expr.Not (go c)
  in
  go c

let collect_conditions exprs =
  let acc = ref [] in
  let note c =
    if not (List.exists (fun c' -> compare c' c = 0) !acc) then acc := c :: !acc
  in
  let rec go e =
    match e with
    | Expr.Const _ | Expr.Var _ -> ()
    | Expr.Neg a | Expr.App (_, a) | Expr.Ddt a | Expr.Idt a -> go a
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b) ->
        go a;
        go b
    | Expr.Cond (c, a, b) ->
        note c;
        go_cond c;
        go a;
        go b
  and go_cond = function
    | Expr.Cmp (_, a, b) ->
        go a;
        go b
    | Expr.And (c1, c2) | Expr.Or (c1, c2) ->
        go_cond c1;
        go_cond c2
    | Expr.Not c -> go_cond c
  in
  Array.iter go exprs;
  List.rev !acc

let rec specialize_conditions choice e =
  match e with
  | Expr.Const _ | Expr.Var _ -> e
  | Expr.Neg a -> Expr.neg (specialize_conditions choice a)
  | Expr.Add (a, b) ->
      Expr.( + ) (specialize_conditions choice a) (specialize_conditions choice b)
  | Expr.Sub (a, b) ->
      Expr.( - ) (specialize_conditions choice a) (specialize_conditions choice b)
  | Expr.Mul (a, b) ->
      Expr.( * ) (specialize_conditions choice a) (specialize_conditions choice b)
  | Expr.Div (a, b) ->
      Expr.( / ) (specialize_conditions choice a) (specialize_conditions choice b)
  | Expr.Ddt a -> Expr.Ddt (specialize_conditions choice a)
  | Expr.Idt a -> Expr.Idt (specialize_conditions choice a)
  | Expr.App (f, a) -> Expr.App (f, specialize_conditions choice a)
  | Expr.Cond (c, a, b) -> (
      match List.find_opt (fun (c', _) -> compare c' c = 0) choice with
      | Some (_, true) -> specialize_conditions choice a
      | Some (_, false) -> specialize_conditions choice b
      | None ->
          Expr.Cond
            (c, specialize_conditions choice a, specialize_conditions choice b))

(* Trapezoidal support: replace every [ddt(arg)] node with a fresh
   auxiliary quantity [s] whose companion update is the trapezoidal
   differentiator [s = (2/dt)(arg - arg@-1) - s@-1]. *)
let extract_ddts ~dt ~fresh e =
  let aux = ref [] in
  let rec go e =
    match e with
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Neg a -> Expr.neg (go a)
    | Expr.Add (a, b) -> Expr.( + ) (go a) (go b)
    | Expr.Sub (a, b) -> Expr.( - ) (go a) (go b)
    | Expr.Mul (a, b) -> Expr.( * ) (go a) (go b)
    | Expr.Div (a, b) -> Expr.( / ) (go a) (go b)
    | Expr.Idt _ ->
        raise
          (Expr.Continuous_time "Solve: idt must be removed with extract_idt")
    | Expr.App (f, a) -> Expr.App (f, go a)
    | Expr.Cond (c, a, b) -> Expr.Cond (go_cond c, go a, go b)
    | Expr.Ddt a ->
        let a' = go a in
        let s = Expr.signal (fresh ()) in
        let update =
          Expr.(
            scale (2.0 /. dt) (a' - Expr.delay_expr 1 a')
            - var (Expr.delayed s 1))
        in
        aux := (s, update) :: !aux;
        Expr.var s
  and go_cond = function
    | Expr.Cmp (op, a, b) -> Expr.Cmp (op, go a, go b)
    | Expr.And (c1, c2) -> Expr.And (go_cond c1, go_cond c2)
    | Expr.Or (c1, c2) -> Expr.Or (go_cond c1, go_cond c2)
    | Expr.Not c -> Expr.Not (go_cond c)
  in
  let e' = go e in
  (e', List.rev !aux)

let solved_assignments_plan ?(mode = `Auto) ?(integration = `Backward_euler)
    ~dt (r : Assemble.result) =
  (* Expand the assembled definitions according to the integration
     rule: backward Euler keeps them as-is; trapezoidal rewrites
     integrations to x = x@-1 + dt/2 (f_t + f_{t-1}) and turns every
     remaining ddt node into a trapezoidal-differentiator auxiliary. *)
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "__ddt%d" !counter
  in
  let expanded =
    List.concat_map
      (fun (d : Assemble.definition) ->
        match (integration, d.Assemble.deriv) with
        | `Backward_euler, _ ->
            [ (d.Assemble.var, Expr.discretize ~dt (bake_dt ~dt d.Assemble.raw),
               d.Assemble.integrates) ]
        | `Trapezoidal, Some rhs ->
            let rhs0 = bake_dt ~dt rhs in
            let rhs1, aux = extract_ddts ~dt ~fresh rhs0 in
            let x = d.Assemble.var in
            let update =
              Expr.(
                var (Expr.delayed x 1)
                + scale (dt /. 2.0) (rhs1 + Expr.delay_expr 1 rhs1))
            in
            List.map (fun (s, e) -> (s, e, false)) aux
            @ [ (x, update, true) ]
        | `Trapezoidal, None ->
            let e0 = bake_dt ~dt d.Assemble.raw in
            let e1, aux = extract_ddts ~dt ~fresh e0 in
            List.map (fun (s, e) -> (s, e, false)) aux
            @ [ (d.Assemble.var, e1, d.Assemble.integrates) ])
      r.Assemble.defs
  in
  let n = List.length expanded in
  let vars = Array.of_list (List.map (fun (v, _, _) -> v) expanded) in
  let integrates = Array.of_list (List.map (fun (_, _, i) -> i) expanded) in
  let mode =
    match mode with
    | (`Exact | `Relaxed) as m -> m
    | `Auto -> if n > auto_threshold then `Relaxed else `Exact
  in
  let pos_of = Hashtbl.create 32 in
  Array.iteri (fun i v -> Hashtbl.replace pos_of (Expr.var_name v) i) vars;
  let def_index v =
    if v.Expr.delay <> 0 then None
    else Hashtbl.find_opt pos_of (Expr.var_name v)
  in
  let lagged_tbl = Hashtbl.create 8 in
  let note_lagged v =
    let v0 = { v with Expr.delay = 0 } in
    Hashtbl.replace lagged_tbl (Expr.var_name v0) v0
  in
  let exprs =
    Array.of_list
      (List.mapi
         (fun i (_, e0, _) ->
        let e = e0 in
        let e =
          match mode with
          | `Exact -> e
          | `Relaxed ->
              (* Relaxation: a forward reference to a state update
                 (integration) reads the previous step's value — the
                 semantics a sequential C++ body gives for free. State
                 updates are contractions (x = x@-1 + O(dt)·algebra),
                 so the one-step lag is stable and costs O(dt)
                 accuracy; algebraic quantities are never lagged, so
                 high-gain feedback loops are still solved exactly. *)
              Expr.subst
                (fun v ->
                  match def_index { v with Expr.delay = 0 } with
                  | Some j when j > i && integrates.(j) ->
                      note_lagged v;
                      Some (Expr.var (Expr.delayed v 1))
                  | Some _ | None -> None)
                e
        in
        Expr.simplify e)
         expanded)
  in
  let lagged =
    Hashtbl.fold (fun _ v acc -> v :: acc) lagged_tbl []
    |> List.sort (fun a b -> compare (Expr.var_name a) (Expr.var_name b))
  in
  let eliminations = ref [] in
  let finish assignments ~regions =
    ( assignments,
      {
        effective_mode = mode;
        integration_used = integration;
        lagged;
        eliminations = List.rev !eliminations;
        regions;
        ddt_aux = !counter;
      } )
  in
  let conditions = collect_conditions exprs in
  if conditions = [] then begin
    (* Current-time reference graph and its strongly connected
       components. *)
    let succ i =
      Expr.Var_set.fold
        (fun v acc -> match def_index v with Some j -> j :: acc | None -> acc)
        (Expr.vars exprs.(i))
        []
    in
    let sccs = tarjan n succ in
    (* Tarjan completes a component only after every component it can
       reach, so the accumulator's head is the last-completed (most
       upstream-referencing) one; reversing yields producers first. *)
    let sccs = List.rev sccs in
    List.iter
      (fun members ->
        match members with
        | [ j ] when not (List.exists (fun k -> k = j) (succ j)) ->
            (* No self-reference: already explicit. *)
            ()
        | members ->
            eliminations := eliminate_component vars exprs members :: !eliminations)
      sccs;
    (* Emission order: components in dependency order, members in their
       original assembly order within each. *)
    let assignments =
      List.concat_map (fun members -> List.sort compare members) sccs
      |> List.map (fun j -> (vars.(j), exprs.(j)))
    in
    finish assignments ~regions:1
  end
  else begin
    (* Piecewise-linear extension (paper Section III-C, via [7]): the
       definitions carry conditionals, so the model is linear only
       per region. Regions are selected on the previous step's values
       (conditions over current unknowns are lagged one step), the
       linear system of every region combination is solved exactly,
       and the update rules select the solved region at run time. *)
    let k = List.length conditions in
    if k > max_region_conditions then
      raise
        (Nonlinear (if n = 0 then Expr.signal "?" else vars.(0)));
    let lag_unknowns_in_condition c =
      map_condition_exprs
        (Expr.subst (fun v ->
             match def_index { v with Expr.delay = 0 } with
             | Some _ -> Some (Expr.var (Expr.delayed v 1))
             | None -> None))
        c
    in
    let lagged = List.map lag_unknowns_in_condition conditions in
    let all = Array.to_list (Array.init n (fun i -> i)) in
    (* Pivot bookkeeping would be 2^k near-copies; keep the first
       solved region's (all conditions true) as the representative. *)
    let solve_region choice =
      let specialized = Array.map (specialize_conditions choice) exprs in
      let elim = eliminate_component vars specialized all in
      if !eliminations = [] then eliminations := [ elim ];
      specialized
    in
    let rec regions chosen = function
      | [] -> `Leaf (solve_region (List.rev chosen))
      | c :: rest ->
          `Node
            ( c,
              regions ((c, true) :: chosen) rest,
              regions ((c, false) :: chosen) rest )
    in
    let tree = regions [] conditions in
    let rec merge i lags tree =
      match (tree, lags) with
      | `Leaf specialized, [] -> specialized.(i)
      | `Node (_, yes, no), lc :: rest ->
          Expr.Cond (lc, merge i rest yes, merge i rest no)
      | `Leaf _, _ :: _ | `Node _, [] -> assert false
    in
    let assignments =
      List.map (fun i -> (vars.(i), Expr.simplify (merge i lagged tree))) all
    in
    finish assignments ~regions:(1 lsl k)
  end

let solved_assignments ?integration ~dt r =
  fst (solved_assignments_plan ?integration ~dt r)

let solve_with_plan ?mode ?integration ~name ~dt (r : Assemble.result) =
  let solved, plan = solved_assignments_plan ?mode ?integration ~dt r in
  let assignments =
    List.map
      (fun (var, e) -> { Amsvp_sf.Sfprogram.target = var; expr = e })
      solved
  in
  ( Amsvp_sf.Sfprogram.make ~name ~inputs:r.Assemble.inputs
      ~outputs:r.Assemble.outputs ~assignments ~dt,
    plan )

let solve ?mode ?integration ~name ~dt r =
  fst (solve_with_plan ?mode ?integration ~name ~dt r)
