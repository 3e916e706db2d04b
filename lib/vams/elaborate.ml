module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Diag = Amsvp_diag.Diag
module Flow = Amsvp_core.Flow

exception Elab_error of string * Diag.span option

let fail ?span fmt =
  Printf.ksprintf (fun s -> raise (Elab_error (s, span))) fmt

type branch_ref = { flow_id : string; pos : string; neg : string }

type contribution = {
  branch : branch_ref;
  is_flow : bool;
  rhs : Expr.t;
  span : Diag.span;
}

type flat = {
  top : string;
  ground : string;
  nets : string list;
  input_ports : string list;
  output_ports : string list;
  contributions : contribution list;
}

type lang = [ `Verilog_ams | `Vhdl_ams ]

(* Elaboration context of one module instance. *)
type ctx = {
  lang : lang;  (* the source language, for its wording of errors *)
  path : string;  (* hierarchical prefix, "" for top *)
  scope : string;  (* [path], or the module name at top level *)
  bindings : (string * string) list;  (* port -> global net *)
  params : (string * float) list;
  branches : (string * (string * string)) list;  (* named branch -> pair *)
  ground_nets : (string, unit) Hashtbl.t;  (* global ground aliases *)
  mutable acc : (branch_ref * bool * Expr.t * Diag.span) list;  (* reverse *)
  mutable nets : string list;
  mutable locals : (string * Expr.t) list;  (* analog real variables *)
}

let qualify ctx name = if ctx.path = "" then name else ctx.path ^ "." ^ name

let resolve_net ctx name =
  match List.assoc_opt name ctx.bindings with
  | Some net -> net
  | None ->
      let g = qualify ctx name in
      if Hashtbl.mem ctx.ground_nets g then "gnd" else g

let note_net ctx net =
  if not (List.mem net ctx.nets) then ctx.nets <- net :: ctx.nets

(* Evaluate a constant expression (parameter values, overrides). *)
let rec const_eval ctx (e : Ast.expr) =
  let span = e.Ast.espan in
  match e.Ast.edesc with
  | Ast.Number f -> f
  | Ast.Ident p -> (
      match List.assoc_opt p ctx.params with
      | Some v -> v
      | None -> fail ~span "unknown parameter %s in %s" p ctx.scope)
  | Ast.Unop (Ast.Neg, a) -> -.const_eval ctx a
  | Ast.Unop (Ast.Not, _) -> fail ~span "boolean in constant expression"
  | Ast.Binop (op, a, b) -> (
      let x = const_eval ctx a and y = const_eval ctx b in
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
          fail ~span "comparison in constant expression")
  | Ast.Call _ | Ast.Access _ | Ast.Ternary _ ->
      fail ~span "unsupported constant expression"

(* Branch resolution: named branches, single nets (to ground) and net
   pairs. Unnamed branches are unique per (instance, oriented pair). *)
let branch_of_access ctx ~span (args : string list) =
  match args with
  | [ x ] -> (
      match List.assoc_opt x ctx.branches with
      | Some (a, b) ->
          let pos = resolve_net ctx a and neg = resolve_net ctx b in
          { flow_id = qualify ctx x; pos; neg }
      | None ->
          let pos = resolve_net ctx x in
          {
            flow_id = qualify ctx (Printf.sprintf "br_%s_gnd" x);
            pos;
            neg = "gnd";
          })
  | [ a; b ] ->
      let pos = resolve_net ctx a and neg = resolve_net ctx b in
      {
        flow_id = qualify ctx (Printf.sprintf "br_%s_%s" a b);
        pos;
        neg;
      }
  | _ -> fail ~span "access takes one or two nets"

let unary_fun_of_name = function
  | "sin" -> Some Expr.Sin
  | "cos" -> Some Expr.Cos
  | "exp" -> Some Expr.Exp
  | "ln" | "log" -> Some Expr.Ln
  | "sqrt" -> Some Expr.Sqrt
  | "abs" -> Some Expr.Abs
  | "tanh" -> Some Expr.Tanh
  | _ -> None

let rec expr_of_ast ctx (e : Ast.expr) =
  let span = e.Ast.espan in
  match e.Ast.edesc with
  | Ast.Number f -> Expr.const f
  | Ast.Ident p -> (
      match List.assoc_opt p ctx.locals with
      | Some e -> e
      | None -> (
          match List.assoc_opt p ctx.params with
          | Some v -> Expr.const v
          | None -> (
              match ctx.lang with
              | `Verilog_ams ->
                  fail ~span
                    "unresolved identifier %s (nets need V()/I() access)" p
              | `Vhdl_ams ->
                  fail ~span
                    "unresolved identifier %s (not a quantity, generic or \
                     constant in scope)"
                    p)))
  | Ast.Access ("V", args) -> (
      match args with
      | [ x ] when not (List.mem_assoc x ctx.branches) ->
          let net = resolve_net ctx x in
          note_net ctx net;
          if net = "gnd" then Expr.zero
          else Expr.var (Expr.potential net "gnd")
      | _ ->
          let br = branch_of_access ctx ~span args in
          note_net ctx br.pos;
          note_net ctx br.neg;
          if br.pos = br.neg then Expr.zero
          else Expr.var (Expr.potential br.pos br.neg))
  | Ast.Access ("I", args) ->
      let br = branch_of_access ctx ~span args in
      note_net ctx br.pos;
      note_net ctx br.neg;
      Expr.var (Expr.flow br.flow_id "")
  | Ast.Access (f, _) -> fail ~span "unknown access function %s" f
  | Ast.Unop (Ast.Neg, a) -> Expr.neg (expr_of_ast ctx a)
  | Ast.Unop (Ast.Not, _) -> fail ~span "boolean operator outside a condition"
  | Ast.Binop (op, a, b) -> (
      match op with
      | Ast.Add -> Expr.( + ) (expr_of_ast ctx a) (expr_of_ast ctx b)
      | Ast.Sub -> Expr.( - ) (expr_of_ast ctx a) (expr_of_ast ctx b)
      | Ast.Mul -> Expr.( * ) (expr_of_ast ctx a) (expr_of_ast ctx b)
      | Ast.Div -> Expr.( / ) (expr_of_ast ctx a) (expr_of_ast ctx b)
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
          fail ~span "comparison outside a condition")
  | Ast.Call ("ddt", [ a ]) -> Expr.Ddt (expr_of_ast ctx a)
  | Ast.Call ("idt", [ a ]) -> Expr.Idt (expr_of_ast ctx a)
  | Ast.Call (f, [ a ]) -> (
      match unary_fun_of_name f with
      | Some fn -> Expr.App (fn, expr_of_ast ctx a)
      | None -> fail ~span "unsupported function %s" f)
  | Ast.Call (f, _) -> fail ~span "unsupported function %s or arity" f
  | Ast.Ternary (c, a, b) ->
      Expr.Cond (cond_of_ast ctx c, expr_of_ast ctx a, expr_of_ast ctx b)

and cond_of_ast ctx (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Binop (Ast.Lt, a, b) ->
      Expr.Cmp (Expr.Lt, expr_of_ast ctx a, expr_of_ast ctx b)
  | Ast.Binop (Ast.Le, a, b) ->
      Expr.Cmp (Expr.Le, expr_of_ast ctx a, expr_of_ast ctx b)
  | Ast.Binop (Ast.Gt, a, b) ->
      Expr.Cmp (Expr.Gt, expr_of_ast ctx a, expr_of_ast ctx b)
  | Ast.Binop (Ast.Ge, a, b) ->
      Expr.Cmp (Expr.Ge, expr_of_ast ctx a, expr_of_ast ctx b)
  | Ast.Binop (Ast.And, a, b) ->
      Expr.And (cond_of_ast ctx a, cond_of_ast ctx b)
  | Ast.Binop (Ast.Or, a, b) -> Expr.Or (cond_of_ast ctx a, cond_of_ast ctx b)
  | Ast.Unop (Ast.Not, a) -> Expr.Not (cond_of_ast ctx a)
  | _ -> fail ~span:e.Ast.espan "expected a comparison in condition"

(* Symbolic execution of an analog block: contributions under an [if]
   apply only when the condition holds, and multiple contributions to
   the same branch accumulate (Verilog-AMS [<+] semantics). *)
let rec exec_stmts ctx guard stmts =
  List.iter
    (fun (s : Ast.stmt) ->
      let sspan = s.Ast.sspan in
      match s.Ast.sdesc with
      | Ast.Contribution ({ Ast.edesc = Ast.Access (f, args); espan }, rhs) ->
          let is_flow =
            match f with
            | "I" -> true
            | "V" -> false
            | _ -> fail ~span:espan "contribution target must be V or I"
          in
          let br = branch_of_access ctx ~span:espan args in
          note_net ctx br.pos;
          note_net ctx br.neg;
          let rhs = expr_of_ast ctx rhs in
          let rhs =
            match guard with
            | None -> rhs
            | Some c -> Expr.Cond (c, rhs, Expr.zero)
          in
          ctx.acc <- (br, is_flow, rhs, sspan) :: ctx.acc
      | Ast.Contribution _ ->
          fail ~span:sspan "contribution target must be an access"
      | Ast.Assign (name, rhs) ->
          (* Symbolic execution of the procedural assignment: under a
             guard, the variable keeps its previous value in the other
             region. *)
          let rhs = expr_of_ast ctx rhs in
          let value =
            match guard with
            | None -> rhs
            | Some c ->
                let previous =
                  match List.assoc_opt name ctx.locals with
                  | Some e -> e
                  | None -> Expr.zero
                in
                Expr.Cond (c, rhs, previous)
          in
          ctx.locals <-
            (name, Expr.simplify value)
            :: List.remove_assoc name ctx.locals
      | Ast.If (c, then_b, else_b) ->
          let c = cond_of_ast ctx c in
          let combined g extra =
            match g with None -> Some extra | Some g0 -> Some (Expr.And (g0, extra))
          in
          exec_stmts ctx (combined guard c) then_b;
          if else_b <> [] then exec_stmts ctx (combined guard (Expr.Not c)) else_b)
    stmts

let overridable (m : Ast.module_def) name =
  List.exists
    (fun (item : Ast.item) ->
      match item.Ast.idesc with
      | Ast.Parameter p -> p.name = name && not p.local
      | _ -> false)
    m.Ast.items

let rec elaborate_module design ~lang ~path ~bindings ~overrides ~ground_nets
    ~acc_ctx (m : Ast.module_def) =
  let base_ctx =
    {
      lang;
      path;
      scope = (if path = "" then m.Ast.name else path);
      bindings;
      params = [];
      branches = [];
      ground_nets;
      acc = [];
      nets = [];
      locals = [];
    }
  in
  (* Parameter environment in declaration order: a default may read the
     parameters declared before it, and an instance override replaces
     it. *)
  let params =
    List.fold_left
      (fun params (item : Ast.item) ->
        match item.Ast.idesc with
        | Ast.Parameter { name; default; _ } ->
            let v =
              match (List.assoc_opt name overrides, default) with
              | Some v, _ -> v
              | None, Some d -> const_eval { base_ctx with params } d
              | None, None ->
                  fail ~span:item.Ast.ispan "parameter %s of %s has no value"
                    name m.Ast.name
            in
            (name, v) :: params
        | _ -> params)
      [] m.Ast.items
  in
  let branches =
    List.concat_map
      (fun (item : Ast.item) ->
        match item.Ast.idesc with
        | Ast.Branch_decl (pair, names) -> List.map (fun n -> (n, pair)) names
        | _ -> [])
      m.Ast.items
  in
  (* Ground declarations become global aliases. *)
  List.iter
    (fun (item : Ast.item) ->
      match item.Ast.idesc with
      | Ast.Ground_decl names ->
          List.iter
            (fun n ->
              let g =
                match List.assoc_opt n bindings with
                | Some net -> net
                | None -> if path = "" then n else path ^ "." ^ n
              in
              Hashtbl.replace ground_nets g ())
            names
      | _ -> ())
    m.Ast.items;
  let ctx = { base_ctx with params; branches } in
  List.iter
    (fun (item : Ast.item) ->
      let ispan = item.Ast.ispan in
      match item.Ast.idesc with
      | Ast.Analog stmts ->
          exec_stmts ctx None stmts;
          (* both newest first; [flatten] restores source order *)
          acc_ctx := ctx.acc @ !acc_ctx;
          ctx.acc <- []
      | Ast.Instance { module_name; instance_name; overrides = ovr; connections }
        -> (
          match Ast.find_module design module_name with
          | None -> fail ~span:ispan "unknown module %s" module_name
          | Some child ->
              let child_path =
                if path = "" then instance_name else path ^ "." ^ instance_name
              in
              let connections =
                (* Positional connections get port names by position. *)
                if List.for_all (fun (p, _) -> p = "") connections then
                  List.mapi
                    (fun i (_, net) ->
                      match List.nth_opt child.Ast.ports i with
                      | Some port -> (port, net)
                      | None ->
                          fail ~span:ispan "too many connections for %s"
                            module_name)
                    connections
                else connections
              in
              let child_bindings =
                List.map
                  (fun (port, net) ->
                    if not (List.mem port child.Ast.ports) then
                      fail ~span:ispan "module %s has no port %s" module_name
                        port;
                    (port, resolve_net ctx net))
                  connections
              in
              let child_overrides =
                List.map
                  (fun (name, (e : Ast.expr)) ->
                    if not (overridable child name) then
                      fail ~span:e.Ast.espan "module %s has no parameter %s"
                        module_name name;
                    (name, const_eval ctx e))
                  ovr
              in
              elaborate_module design ~lang ~path:child_path
                ~bindings:child_bindings
                ~overrides:child_overrides ~ground_nets ~acc_ctx child)
      | Ast.Port_direction _ | Ast.Net_decl _ | Ast.Ground_decl _
      | Ast.Branch_decl _ | Ast.Parameter _ ->
          ())
    m.Ast.items

let flatten ?(lang = `Verilog_ams) design ~top =
  match Ast.find_module design top with
  | None -> fail "unknown top module %s" top
  | Some m ->
      let ground_nets = Hashtbl.create 4 in
      (* The conventional ground names at top level. *)
      Hashtbl.replace ground_nets "gnd" ();
      Hashtbl.replace ground_nets "0" ();
      let acc_ctx = ref [] in
      (* Top-level ports are bound to nets of the same name. *)
      let bindings = List.map (fun p -> (p, p)) m.Ast.ports in
      elaborate_module design ~lang ~path:"" ~bindings ~overrides:[]
        ~ground_nets ~acc_ctx m;
      let raw = List.rev !acc_ctx in
      (* Rewrite ground aliases and collect nets. *)
      let canon net = if Hashtbl.mem ground_nets net then "gnd" else net in
      let raw =
        List.map
          (fun (br, is_flow, rhs, span) ->
            let br = { br with pos = canon br.pos; neg = canon br.neg } in
            let rhs =
              Expr.subst
                (fun v ->
                  match v.Expr.base with
                  | Expr.Potential (a, b) ->
                      let a = canon a and b = canon b in
                      if a = b then Some Expr.zero
                      else Some (Expr.var { v with Expr.base = Expr.Potential (a, b) })
                  | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> None)
                rhs
            in
            (br, is_flow, rhs, span))
          raw
      in
      (* Merge contributions per (branch, kind); the merged contribution
         keeps the span of its first statement. *)
      let merged = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun (br, is_flow, rhs, span) ->
          let key = (br.flow_id, is_flow) in
          match Hashtbl.find_opt merged key with
          | Some (br0, acc, span0) ->
              Hashtbl.replace merged key (br0, Expr.( + ) acc rhs, span0)
          | None ->
              Hashtbl.replace merged key (br, rhs, span);
              order := key :: !order)
        raw;
      let contributions =
        List.rev_map
          (fun key ->
            let br, rhs, span = Hashtbl.find merged key in
            { branch = br; is_flow = snd key; rhs = Expr.simplify rhs; span })
          !order
      in
      let nets =
        let module S = Set.Make (String) in
        let s =
          List.fold_left
            (fun s c ->
              let s = S.add c.branch.pos (S.add c.branch.neg s) in
              Expr.Var_set.fold
                (fun v s ->
                  match v.Expr.base with
                  | Expr.Potential (a, b) -> S.add a (S.add b s)
                  | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> s)
                (Expr.vars c.rhs) s)
            (S.singleton "gnd") contributions
        in
        S.elements s
      in
      let direction d =
        List.concat_map
          (fun (item : Ast.item) ->
            match item.Ast.idesc with
            | Ast.Port_direction (dd, names) when dd = d -> names
            | _ -> [])
          m.Ast.items
      in
      {
        top;
        ground = "gnd";
        nets;
        input_ports = direction Ast.Input;
        output_ports = direction Ast.Output;
        contributions;
      }

let accesses_flow flat =
  List.exists
    (fun c ->
      c.is_flow
      || Expr.Var_set.exists
           (fun v ->
             match v.Expr.base with
             | Expr.Flow _ -> true
             | Expr.Potential _ | Expr.Signal _ | Expr.Param _ -> false)
           (Expr.vars c.rhs))
    flat.contributions

let classify flat =
  let all_to_ground =
    List.for_all (fun c -> (not c.is_flow) && c.branch.neg = "gnd") flat.contributions
  in
  if all_to_ground && not (accesses_flow flat) then `Signal_flow
  else `Conservative

(* The device a branch becomes: its flow id, sanitised. *)
let device_name br =
  String.map
    (fun ch -> if ch = '(' || ch = ')' || ch = ',' || ch = '.' then '_' else ch)
    br.flow_id

(* Device recognition over the summed branch contribution. *)
let recognise (c : contribution) =
  let br = c.branch in
  let span = c.span in
  let self_flow = Expr.flow br.flow_id "" in
  let self_pot = Expr.potential br.pos br.neg in
  let name = device_name br in
  let mk kind = Component.make ~name ~pos:br.pos ~neg:br.neg kind in
  let is p v = Eqn.compare_pseudo p v = 0 in
  (* Conductance coefficient of a per-region branch: g * V(self). *)
  let region_conductance e =
    match Eqn.plinear_form e with
    | Some ([ (p, g) ], 0.0) when is p (Eqn.Cur self_pot) -> Some g
    | Some _ | None -> None
  in
  (* An if/else pair of guarded contributions accumulates to
     [Cond(c,a,0) + Cond(not c,b,0)]: normalise it to the canonical
     ternary before recognition. *)
  let rhs =
    match c.rhs with
    | Expr.Add
        ( Expr.Cond (c1, a, Expr.Const 0.0),
          Expr.Cond (Expr.Not c2, b, Expr.Const 0.0) )
      when compare c1 c2 = 0 ->
        Expr.Cond (c1, a, b)
    | e -> e
  in
  match rhs with
  (* I(a,b) <+ V(a,b) >= thr ? g_on*V(a,b) : g_off*V(a,b) :
     two-segment piecewise-linear conductance (Section III-C). *)
  | Expr.Cond
      ( Expr.Cmp (cmp, Expr.Var v, Expr.Const threshold),
        then_branch,
        else_branch )
    when c.is_flow
         && Expr.equal_var v self_pot
         && (cmp = Expr.Ge || cmp = Expr.Gt) -> (
      match (region_conductance then_branch, region_conductance else_branch) with
      | Some g_on, Some g_off ->
          mk (Component.Pwl_conductance { g_on; g_off; threshold })
      | _ ->
          fail ~span "unsupported piecewise-linear contribution on branch %s"
            br.flow_id)
  | _ -> (
  match Eqn.plinear_form rhs with
  | None -> fail ~span "nonlinear contribution on branch %s" br.flow_id
  | Some (items, k) -> (
      match (c.is_flow, items, k) with
      (* V(a,b) <+ r * I(self) : resistor *)
      | false, [ (p, r) ], 0.0 when is p (Eqn.Cur self_flow) -> mk (Component.Resistor r)
      (* V(a,b) <+ l * ddt(I(self)) : inductor *)
      | false, [ (p, l) ], 0.0 when is p (Eqn.Der self_flow) -> mk (Component.Inductor l)
      (* V(a,b) <+ const : voltage source *)
      | false, [], v -> mk (Component.Vsource (Component.Dc v))
      (* V(a,b) <+ g*V(c,d) [+ g*(V(c)-V(d))] : controlled source *)
      | false, [ (Eqn.Cur { Expr.base = Expr.Potential (cp, cn); delay = 0 }, g) ], 0.0 ->
          mk (Component.Vcvs { gain = g; ctrl_pos = cp; ctrl_neg = cn })
      | ( false,
          [
            (Eqn.Cur { Expr.base = Expr.Potential (a1, g1); delay = 0 }, ga);
            (Eqn.Cur { Expr.base = Expr.Potential (a2, g2); delay = 0 }, gb);
          ],
          0.0 )
        when g1 = "gnd" && g2 = "gnd" && ga = -.gb ->
          (* g*(V(a1) - V(a2)) written over ground-referenced accesses *)
          mk (Component.Vcvs { gain = ga; ctrl_pos = a1; ctrl_neg = a2 })
      (* I(a,b) <+ c * ddt(V(self)) : capacitor *)
      | true, [ (p, cap) ], 0.0 when is p (Eqn.Der self_pot) -> mk (Component.Capacitor cap)
      (* I(a,b) <+ g * V(self) : conductance *)
      | true, [ (p, g) ], 0.0 when is p (Eqn.Cur self_pot) && g <> 0.0 ->
          mk (Component.Resistor (1.0 /. g))
      (* I(a,b) <+ const : current source *)
      | true, [], v -> mk (Component.Isource (Component.Dc v))
      (* I(a,b) <+ gm * V(c,d) : transconductance *)
      | true, [ (Eqn.Cur { Expr.base = Expr.Potential (cp, cn); delay = 0 }, gm) ], 0.0 ->
          mk (Component.Vccs { gm; ctrl_pos = cp; ctrl_neg = cn })
      | _ ->
          fail ~span "unrecognised constitutive equation on branch %s: %s"
            br.flow_id
            (Expr.to_string c.rhs)))

let to_circuit flat =
  let circuit = Circuit.create ~ground:flat.ground () in
  List.iter (fun c -> Circuit.add circuit (recognise c)) flat.contributions;
  (* External drive: each input-direction top port is driven by a
     voltage source carrying the homonymous input signal. *)
  List.iter
    (fun p ->
      Circuit.add_vsource circuit ~name:("__drv_" ^ p) ~pos:p ~neg:flat.ground
        (Component.Input p))
    flat.input_ports;
  circuit

let signal_flow_assignments flat =
  (match classify flat with
  | `Signal_flow -> ()
  | `Conservative -> fail "model %s is not in signal-flow form" flat.top);
  let rewrite_inputs e =
    Expr.subst
      (fun v ->
        match v.Expr.base with
        | Expr.Potential (a, "gnd") when List.mem a flat.input_ports ->
            Some (Expr.var { v with Expr.base = Expr.Signal a })
        | Expr.Potential _ | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> None)
      e
  in
  List.map
    (fun c -> (Expr.potential c.branch.pos "gnd", rewrite_inputs c.rhs))
    flat.contributions

(* A signal-flow finding points at the contribution that assigns its
   quantity. A topology or solvability finding names a device or node:
   point it at the first contribution that created that device or
   touched that node. *)
let spans flat =
  match classify flat with
  | `Signal_flow ->
      let of_var v =
        List.find_map
          (fun c ->
            if Expr.equal_var (Expr.potential c.branch.pos "gnd") v then
              Some c.span
            else None)
          flat.contributions
      in
      { Flow.of_subject = (fun _ -> None); of_var }
  | `Conservative ->
      let dev_span = Hashtbl.create 16 and node_span = Hashtbl.create 16 in
      let note tbl key span =
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key span
      in
      List.iter
        (fun c ->
          note dev_span (device_name c.branch) c.span;
          note node_span c.branch.pos c.span;
          note node_span c.branch.neg c.span;
          (* Sensed-only nets (controlled-source references) appear in
             the rhs but on no branch; map them too so a solvability
             finding about them points at the sensing contribution. *)
          Expr.Var_set.iter
            (fun (v : Expr.var) ->
              match v.Expr.base with
              | Expr.Potential (a, b) ->
                  note node_span a c.span;
                  note node_span b c.span
              | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> ())
            (Expr.vars c.rhs))
        flat.contributions;
      let either tbl a tbl' b =
        match Hashtbl.find_opt tbl a with
        | None -> Hashtbl.find_opt tbl' b
        | sp -> sp
      in
      {
        Flow.of_subject = (fun s -> either dev_span s node_span s);
        of_var =
          (fun v ->
            match v.Expr.base with
            | Expr.Flow (n, _) -> Hashtbl.find_opt dev_span n
            | Expr.Potential (a, b) -> either node_span a node_span b
            | Expr.Signal _ | Expr.Param _ -> None);
      }

let abstract ?mode ?integration flat ~outputs ~dt =
  let spans = lazy (spans flat) in
  match classify flat with
  | `Conservative ->
      Flow.abstract_circuit ~name:flat.top ?mode ?integration ~spans
        (to_circuit flat) ~outputs ~dt
  | `Signal_flow -> (
      let contributions = signal_flow_assignments flat in
      match
        Flow.signal_flow ~spans ~name:flat.top ~inputs:flat.input_ports
          ~outputs ~contributions ~dt
      with
      | Error findings -> raise (Diag.Rejected (List.hd findings))
      | Ok program ->
          {
            Flow.program;
            nodes = List.length flat.nets;
            branches = List.length flat.contributions;
            classes = 0;
            variants = 0;
            definitions = List.length contributions;
            explain = Amsvp_core.Explain.of_signal_flow program;
            acquisition_s = 0.0;
            enrichment_s = 0.0;
            assemble_s = 0.0;
            solve_s = 0.0;
          })

let front_end ?file f =
  match f () with
  | v -> Ok v
  | exception Lexer.Lex_error (msg, line, col) ->
      Error (Diag.error ~span:(Diag.span ?file line col) "AMS001" msg)
  | exception Parser.Parse_error (msg, line, col) ->
      Error (Diag.error ~span:(Diag.span ?file line col) "AMS002" msg)
  | exception Elab_error (msg, span) -> Error (Diag.error ?span "AMS003" msg)

let parse_and_abstract src ~top ~outputs ~dt =
  abstract (flatten (Parser.parse src) ~top) ~outputs ~dt
