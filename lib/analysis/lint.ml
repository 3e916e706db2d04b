module Diag = Amsvp_diag.Diag
module Ast = Amsvp_vams.Ast
module Lexer = Amsvp_vams.Lexer
module Parser = Amsvp_vams.Parser
module Elaborate = Amsvp_vams.Elaborate
module Vparser = Amsvp_vhdlams.Vparser
module Velaborate = Amsvp_vhdlams.Velaborate
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Flow = Amsvp_core.Flow
module Check = Amsvp_core.Check
module Acquisition = Amsvp_core.Acquisition
module Enrich = Amsvp_core.Enrich
module Assemble = Amsvp_core.Assemble
module Solve = Amsvp_core.Solve

type lang = [ `Verilog_ams | `Vhdl_ams ]

(* ------------------------------------------------------------------ *)
(* AST passes (both front-ends)                                       *)
(* ------------------------------------------------------------------ *)

type decl_kind = Knet | Kreal | Kbranch | Kparam | Kground

(* Every parameter overridden on some instance, design-wide:
   [(module, param)] keys. A parameter only consumed through overrides
   is not unused. *)
let overridden_params design =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (m : Ast.module_def) ->
      List.iter
        (fun (it : Ast.item) ->
          match it.Ast.idesc with
          | Ast.Instance { module_name; overrides; _ } ->
              List.iter
                (fun (p, _) -> Hashtbl.replace tbl (module_name, p) ())
                overrides
          | _ -> ())
        m.Ast.items)
    design;
  tbl

let ast_module_findings ~overridden (m : Ast.module_def) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let decls = Hashtbl.create 16 in
  let declare name kind span =
    if not (Hashtbl.mem decls name) then Hashtbl.add decls name (kind, span)
  in
  let dirs = Hashtbl.create 8 in
  let grounds = Hashtbl.create 4 in
  Hashtbl.replace grounds "gnd" ();
  List.iter
    (fun (it : Ast.item) ->
      let sp = it.Ast.ispan in
      match it.Ast.idesc with
      | Ast.Port_direction (d, ids) ->
          List.iter
            (fun n ->
              Hashtbl.replace dirs n d;
              declare n Knet sp)
            ids
      | Ast.Net_decl ("real", ids) -> List.iter (fun n -> declare n Kreal sp) ids
      | Ast.Net_decl (_, ids) -> List.iter (fun n -> declare n Knet sp) ids
      | Ast.Ground_decl ids ->
          List.iter
            (fun n ->
              Hashtbl.replace grounds n ();
              declare n Kground sp)
            ids
      | Ast.Branch_decl (_, names) ->
          List.iter (fun n -> declare n Kbranch sp) names
      | Ast.Parameter { name; _ } -> declare name Kparam sp
      | Ast.Analog _ | Ast.Instance _ -> ())
    m.Ast.items;
  (* Usage collection. *)
  let net_uses = ref [] in
  let net_used = Hashtbl.create 16 in
  let ident_used = Hashtbl.create 16 in
  let use_net n sp =
    net_uses := (n, sp) :: !net_uses;
    Hashtbl.replace net_used n ()
  in
  let all_exprs = ref [] in
  let contribs = ref [] in
  let rec walk_expr (e : Ast.expr) =
    match e.Ast.edesc with
    | Ast.Number _ -> ()
    | Ast.Ident x -> Hashtbl.replace ident_used x ()
    | Ast.Access (_, args) -> List.iter (fun a -> use_net a e.Ast.espan) args
    | Ast.Unop (_, a) -> walk_expr a
    | Ast.Binop (_, a, b) ->
        walk_expr a;
        walk_expr b
    | Ast.Call (_, args) -> List.iter walk_expr args
    | Ast.Ternary (c, a, b) ->
        walk_expr c;
        walk_expr a;
        walk_expr b
  in
  let note e =
    all_exprs := e :: !all_exprs;
    walk_expr e
  in
  let rec walk_stmt ~cond (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Contribution (t, rhs) ->
        contribs := (t, rhs, cond, s.Ast.sspan) :: !contribs;
        note t;
        note rhs
    | Ast.Assign (_, e) -> note e
    | Ast.If (c, a, b) ->
        note c;
        List.iter (walk_stmt ~cond:true) a;
        List.iter (walk_stmt ~cond:true) b
  in
  List.iter
    (fun (it : Ast.item) ->
      match it.Ast.idesc with
      | Ast.Analog stmts -> List.iter (walk_stmt ~cond:false) stmts
      | Ast.Parameter { default; _ } -> Option.iter note default
      | Ast.Branch_decl ((a, b), _) ->
          use_net a it.Ast.ispan;
          use_net b it.Ast.ispan
      | Ast.Instance { connections; overrides; _ } ->
          List.iter (fun (_, net) -> use_net net it.Ast.ispan) connections;
          List.iter (fun (_, e) -> note e) overrides
      | Ast.Port_direction _ | Ast.Net_decl _ | Ast.Ground_decl _ -> ())
    m.Ast.items;
  let contribs = List.rev !contribs in
  (* AMS010: branch accesses and instance connections over undeclared
     nets. One finding per name, at its first use. *)
  let reported = Hashtbl.create 8 in
  List.iter
    (fun (n, sp) ->
      if
        (not (Hashtbl.mem decls n))
        && (not (Hashtbl.mem grounds n))
        && not (Hashtbl.mem reported n)
      then begin
        Hashtbl.replace reported n ();
        add
          (Diag.warning ~span:sp ~subject:n "AMS010"
             (Printf.sprintf "net %s is not declared in module %s" n
                m.Ast.name))
      end)
    (List.rev !net_uses);
  (* AMS011: declared but never used. *)
  Hashtbl.iter
    (fun name (kind, sp) ->
      let used =
        match kind with
        | Kground -> true
        | Knet -> Hashtbl.mem net_used name || List.mem name m.Ast.ports
        | Kbranch -> Hashtbl.mem net_used name
        | Kreal -> Hashtbl.mem ident_used name
        | Kparam ->
            Hashtbl.mem ident_used name
            || Hashtbl.mem overridden (m.Ast.name, name)
      in
      if not used then
        let what =
          match kind with
          | Knet -> "net"
          | Kreal -> "analog variable"
          | Kbranch -> "branch"
          | Kparam -> "parameter"
          | Kground -> "ground"
        in
        add
          (Diag.warning ~span:sp ~subject:name "AMS011"
             (Printf.sprintf "%s %s is declared but never used" what name)))
    decls;
  (* AMS012/013/014 over contribution statements. *)
  let contrib_seen = Hashtbl.create 8 in
  List.iter
    (fun ((t : Ast.expr), (rhs : Ast.expr), cond, ssp) ->
      match t.Ast.edesc with
      | Ast.Access (fn, args) ->
          let target_name =
            Printf.sprintf "%s(%s)" fn (String.concat "," args)
          in
          if fn <> "V" && fn <> "I" then
            add
              (Diag.error ~span:t.Ast.espan ~subject:fn "AMS012"
                 (Printf.sprintf
                    "cannot contribute to %s: only V(...) and I(...) branch \
                     accesses are contribution targets"
                    target_name))
          else if args = [] || List.length args > 2 then
            add
              (Diag.error ~span:t.Ast.espan ~subject:target_name "AMS012"
                 (Printf.sprintf "branch access %s takes one or two nets"
                    target_name))
          else if fn = "V" then
            (* Only potential contributions conflict with an external
               driver; sourcing a current into a driven port is the
               normal conservative idiom (the driver absorbs it). *)
            List.iter
              (fun a ->
                match Hashtbl.find_opt dirs a with
                | Some Ast.Input ->
                    add
                      (Diag.error ~span:t.Ast.espan ~subject:a "AMS012"
                         (Printf.sprintf
                            "contribution to %s drives input-direction port %s"
                            target_name a))
                | _ -> ())
              args;
          (if not cond then
             match Hashtbl.find_opt contrib_seen target_name with
             | Some _ ->
                 add
                   (Diag.warning ~span:ssp ~subject:target_name "AMS013"
                      (Printf.sprintf
                         "duplicate contribution to %s; contributions \
                          accumulate"
                         target_name))
             | None -> Hashtbl.replace contrib_seen target_name ssp);
          (* AMS014: the target read back outside ddt/idt. *)
          let rec self ~under (e : Ast.expr) =
            match e.Ast.edesc with
            | Ast.Access (fn', args') when fn' = fn && args' = args ->
                not under
            | Ast.Number _ | Ast.Ident _ | Ast.Access _ -> false
            | Ast.Unop (_, a) -> self ~under a
            | Ast.Binop (_, a, b) -> self ~under a || self ~under b
            | Ast.Call (f, es) ->
                let under = under || f = "ddt" || f = "idt" in
                List.exists (self ~under) es
            | Ast.Ternary (c, a, b) ->
                self ~under c || self ~under a || self ~under b
          in
          if self ~under:false rhs then
            add
              (Diag.warning ~span:ssp ~subject:target_name "AMS014"
                 (Printf.sprintf
                    "contribution to %s reads its own target outside \
                     ddt/idt; the implicit equation is solved simultaneously"
                    target_name))
      | _ ->
          add
            (Diag.error ~span:t.Ast.espan "AMS012"
               "contribution target must be a V(...) or I(...) branch access"))
    contribs;
  (* AMS015: nested ddt/idt. *)
  let rec nested ~depth (e : Ast.expr) =
    match e.Ast.edesc with
    | Ast.Call (("ddt" | "idt") as f, es) ->
        if depth >= 1 then
          add
            (Diag.error ~span:e.Ast.espan ~subject:f "AMS015"
               (Printf.sprintf
                  "%s nested inside another derivative/integral: only \
                   first-order operators are supported"
                  f));
        List.iter (nested ~depth:(depth + 1)) es
    | Ast.Number _ | Ast.Ident _ | Ast.Access _ -> ()
    | Ast.Unop (_, a) -> nested ~depth a
    | Ast.Binop (_, a, b) ->
        nested ~depth a;
        nested ~depth b
    | Ast.Call (_, es) -> List.iter (nested ~depth) es
    | Ast.Ternary (c, a, b) ->
        nested ~depth c;
        nested ~depth a;
        nested ~depth b
  in
  List.iter (nested ~depth:0) !all_exprs;
  (* AMS016: a parameter whose declared default is 0 used as divisor. *)
  let zero_params = Hashtbl.create 4 in
  List.iter
    (fun (it : Ast.item) ->
      match it.Ast.idesc with
      | Ast.Parameter
          { name; default = Some { Ast.edesc = Ast.Number 0.0; _ }; _ }
      | Ast.Parameter
          {
            name;
            default =
              Some
                {
                  Ast.edesc =
                    Ast.Unop (Ast.Neg, { Ast.edesc = Ast.Number 0.0; _ });
                  _;
                };
            _;
          } ->
          Hashtbl.replace zero_params name ()
      | _ -> ())
    m.Ast.items;
  let rec divcheck (e : Ast.expr) =
    (match e.Ast.edesc with
    | Ast.Binop (Ast.Div, _, ({ Ast.edesc = Ast.Ident p; _ } as den))
      when Hashtbl.mem zero_params p ->
        add
          (Diag.error ~span:den.Ast.espan ~subject:p "AMS016"
             (Printf.sprintf
                "parameter %s has declared default 0 and is used as a divisor"
                p))
    | _ -> ());
    match e.Ast.edesc with
    | Ast.Number _ | Ast.Ident _ | Ast.Access _ -> ()
    | Ast.Unop (_, a) -> divcheck a
    | Ast.Binop (_, a, b) ->
        divcheck a;
        divcheck b
    | Ast.Call (_, es) -> List.iter divcheck es
    | Ast.Ternary (c, a, b) ->
        divcheck c;
        divcheck a;
        divcheck b
  in
  List.iter divcheck !all_exprs;
  List.rev !findings

let ast_findings (design : Ast.design) =
  let overridden = overridden_params design in
  List.concat_map (ast_module_findings ~overridden) design

(* ------------------------------------------------------------------ *)
(* Elaborated-model passes (shared by both front-ends)                 *)
(* ------------------------------------------------------------------ *)

let sanitize =
  String.map (fun ch ->
      if ch = '(' || ch = ')' || ch = ',' || ch = '.' then '_' else ch)

let has_error fs = List.exists (fun f -> f.Diag.severity = Diag.Error) fs

let ams003 (msg, sp) = Diag.error ?span:sp "AMS003" msg

(* ------------------------------------------------------------------ *)
(* Semantic value-range passes (abstract interpretation)               *)
(* ------------------------------------------------------------------ *)

(* Inputs range over the unit box unless `lint --input-bound` widens
   it, so AMS061 reports structural hazards rather than
   unbounded-stimulus overflow. *)
let default_input_bound = 1.0

(* Once a route produced a signal-flow program, run the abstract
   interpreter over it with every input confined to ±input_bound and
   turn the proven facts into findings. *)
let bounded_findings ?amplitude_budget ~input_bound ?(report_dead = true)
    ~span_of_target (program : Amsvp_sf.Sfprogram.t) =
  match
    Absint.analyze
      ~inputs:
        (List.map
           (fun s -> (s, Absint.interval (-.input_bound) input_bound))
           program.Amsvp_sf.Sfprogram.inputs)
      program
  with
  | exception _ -> []
  | a ->
      let add_span (v : Expr.var) f =
        match span_of_target v with
        | Some sp -> Diag.with_span f sp
        | None -> f
      in
      (* Generated helper quantities (observation probes and the like)
         carry a [__] prefix; their values are machinery, not model. *)
      let internal (v : Expr.var) =
        let pre s = String.length s >= 2 && s.[0] = '_' && s.[1] = '_' in
        match v.Expr.base with
        | Expr.Potential (a, b) | Expr.Flow (a, b) -> pre a || pre b
        | Expr.Signal s | Expr.Param s -> pre s
      in
      let div60 =
        List.filter (fun v -> not (internal v)) a.Absint.a_div_sure
        |> List.map (fun (v : Expr.var) ->
               add_span v
                 (Diag.error ~subject:(Expr.var_name v) "AMS060"
                    (Printf.sprintf
                       "division by zero is guaranteed in the definition of \
                        %s (the divisor is provably zero at every step)"
                       (Expr.var_name v))))
      in
      let nonfinite61 =
        List.filter_map
          (fun ((o : Expr.var), itv) ->
            if Absint.may_non_finite itv then
              Some
                (add_span o
                   (Diag.warning ~subject:(Expr.var_name o) "AMS061"
                      (Printf.sprintf
                         "output %s may reach a non-finite value (proven \
                          range: %s)"
                         (Expr.var_name o) (Absint.to_string itv))))
            else None)
          a.Absint.a_outputs
      in
      let is_output t =
        List.exists (Expr.equal_var t) program.Amsvp_sf.Sfprogram.outputs
      in
      let const62 =
        List.filter_map
          (fun ((t : Expr.var), itv) ->
            match Absint.singleton itv with
            | Some c when (not (is_output t)) && not (internal t) ->
                Some
                  (add_span t
                     (Diag.info ~subject:(Expr.var_name t) "AMS062"
                        (Printf.sprintf
                           "%s is provably the constant %g at every step"
                           (Expr.var_name t) c)))
            | _ -> None)
          a.Absint.a_targets
      in
      let dead62 =
        if not report_dead then []
        else
          List.filter (fun v -> not (internal v)) a.Absint.a_dead
          |> List.map (fun (t : Expr.var) ->
                 add_span t
                   (Diag.info ~subject:(Expr.var_name t) "AMS062"
                      (Printf.sprintf
                         "%s contributes to no output (dead definition)"
                         (Expr.var_name t))))
      in
      let budget63 =
        match amplitude_budget with
        | None -> []
        | Some b ->
            List.filter_map
              (fun ((o : Expr.var), itv) ->
                if
                  Absint.has_finite itv
                  && (itv.Absint.hi > b || itv.Absint.lo < -.b)
                then
                  Some
                    (add_span o
                       (Diag.warning ~subject:(Expr.var_name o) "AMS063"
                          (Printf.sprintf
                             "proven bound of output %s is [%g, %g], \
                              exceeding the amplitude budget %g"
                             (Expr.var_name o) itv.Absint.lo itv.Absint.hi b)))
                else None)
              a.Absint.a_outputs
      in
      div60 @ nonfinite61 @ const62 @ dead62 @ budget63

(* The value-range pass on the default input box. *)
let absint_findings ?amplitude_budget ?report_dead ~span_of_target program =
  bounded_findings ?amplitude_budget ~input_bound:default_input_bound
    ?report_dead ~span_of_target program

(* The ground-connected part of a circuit: devices with both terminals
   reachable from ground. Lets the deeper passes run even when a
   floating island was diagnosed. *)
let grounded_subcircuit circuit =
  let devices = Circuit.devices circuit in
  let adj = Hashtbl.create 16 in
  let link a b =
    Hashtbl.replace adj a (b :: (try Hashtbl.find adj a with Not_found -> []))
  in
  List.iter
    (fun (d : Component.t) ->
      link d.Component.pos d.Component.neg;
      link d.Component.neg d.Component.pos)
    devices;
  let visited = Hashtbl.create 16 in
  let rec visit n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.replace visited n ();
      List.iter visit (try Hashtbl.find adj n with Not_found -> [])
    end
  in
  visit (Circuit.ground circuit);
  let keep =
    List.filter
      (fun (d : Component.t) ->
        Hashtbl.mem visited d.Component.pos
        && Hashtbl.mem visited d.Component.neg)
      devices
  in
  if List.length keep = List.length devices then circuit
  else begin
    let c = Circuit.create ~ground:(Circuit.ground circuit) () in
    List.iter (Circuit.add c) keep;
    c
  end

let conservative_findings ?amplitude_budget ~input_bound ~dt
    (flat : Elaborate.flat) =
  match Elaborate.to_circuit flat with
  | exception Elaborate.Elab_error (msg, sp) -> [ ams003 (msg, sp) ]
  | circuit ->
      (* Span resolution: a topology or solvability finding names a
         device or node; point it at the first contribution that
         created that device (device names are the sanitised flow id)
         or touched that node. *)
      let dev_span = Hashtbl.create 16 and node_span = Hashtbl.create 16 in
      List.iter
        (fun (c : Elaborate.contribution) ->
          let name = sanitize c.Elaborate.branch.Elaborate.flow_id in
          if not (Hashtbl.mem dev_span name) then
            Hashtbl.add dev_span name c.Elaborate.span;
          let note_node n =
            if not (Hashtbl.mem node_span n) then
              Hashtbl.add node_span n c.Elaborate.span
          in
          note_node c.Elaborate.branch.Elaborate.pos;
          note_node c.Elaborate.branch.Elaborate.neg;
          (* Sensed-only nets (controlled-source references) appear in
             the rhs but on no branch; map them too so a solvability
             finding about them points at the sensing contribution. *)
          Expr.Var_set.iter
            (fun (v : Expr.var) ->
              match v.Expr.base with
              | Expr.Potential (a, b) ->
                  note_node a;
                  note_node b
              | Expr.Flow _ | Expr.Signal _ | Expr.Param _ -> ())
            (Expr.vars c.Elaborate.rhs))
        flat.Elaborate.contributions;
      let span_of_subject s =
        match Hashtbl.find_opt dev_span s with
        | Some sp -> Some sp
        | None -> Hashtbl.find_opt node_span s
      in
      let span_of_var (v : Expr.var) =
        match v.Expr.base with
        | Expr.Flow (n, _) -> Hashtbl.find_opt dev_span n
        | Expr.Potential (a, b) -> (
            match Hashtbl.find_opt node_span a with
            | Some sp -> Some sp
            | None -> Hashtbl.find_opt node_span b)
        | Expr.Signal _ | Expr.Param _ -> None
      in
      let attach f =
        match (f.Diag.span, f.Diag.subject) with
        | None, Some s -> (
            match span_of_subject s with
            | Some sp -> Diag.with_span f sp
            | None -> f)
        | _ -> f
      in
      let topo = List.map attach (Circuit.diagnose circuit) in
      (* Degrade gracefully: a floating island (AMS020/021) does not
         block the solvability passes — they run on the grounded part
         of the network. Source loops/cutsets (AMS022/023) make the
         remaining system singular by construction, so deeper passes
         would only repeat them. *)
      let blocking =
        List.exists
          (fun f ->
            f.Diag.severity = Diag.Error
            && (f.Diag.code = "AMS022" || f.Diag.code = "AMS023"))
          topo
      in
      let circuit = grounded_subcircuit circuit in
      if blocking || Circuit.device_count circuit = 0 then topo
      else begin
        match
          let probed = Flow.insert_probes circuit ~outputs:[] in
          let acq = Acquisition.of_circuit probed in
          let map, _stats = Enrich.enrich acq in
          let solv = Check.solvability ~span_of:span_of_var map ~outputs:[] in
          if has_error solv then solv
          else begin
            let asm_outputs =
              (* The ground-referenced node voltages: asking for every
                 branch potential forces Assemble to define the floating
                 ones algebraically, which hides the state form (and its
                 time constants) from the safety pass. *)
              let g = Circuit.ground probed in
              let all =
                List.map Component.potential_var (Circuit.devices probed)
                |> List.sort_uniq Expr.compare_var
              in
              let grounded =
                List.filter
                  (fun (v : Expr.var) ->
                    match v.Expr.base with
                    | Expr.Potential (_, b) -> b = g
                    | _ -> false)
                  all
              in
              if grounded <> [] then grounded else all
            in
            let inputs = Circuit.input_signals probed in
            match Assemble.assemble map ~inputs ~outputs:asm_outputs with
            | exception Assemble.No_definition v ->
                solv
                @ [
                    Diag.error ?span:(span_of_var v)
                      ~subject:(Expr.var_name v) "AMS030"
                      (Printf.sprintf
                         "no consistent set of equations defines %s"
                         (Expr.var_name v));
                  ]
            | asm ->
                (* Matching is necessary, not sufficient: run the solver
                   to catch a rank-deficient definition choice the same
                   way the flow's own gate does. *)
                let late =
                  match
                    Solve.solve_with_plan ~mode:`Auto
                      ~integration:`Backward_euler ~name:"lint" ~dt asm
                  with
                  | _ -> []
                  | exception Solve.Underdetermined msg ->
                      [
                        Diag.error "AMS030"
                          (Printf.sprintf "underdetermined system (%s)" msg);
                      ]
                  | exception Solve.Nonlinear v ->
                      [
                        Diag.error
                          ?span:(span_of_var v)
                          ~subject:(Expr.var_name v) "AMS042"
                          (Printf.sprintf
                             "nonlinear definition for %s (outside the \
                              linear scope)"
                             (Expr.var_name v));
                      ]
                in
                let base =
                  solv @ late
                  @ Check.abstraction_safety ~span_of:span_of_var ~dt asm
                in
                (* value-range passes, on the very program the flow
                   would hand the execution engines *)
                let sem =
                  if has_error base then []
                  else
                    match
                      Flow.abstract_circuit ~name:"lint" probed
                        ~outputs:asm_outputs ~dt
                    with
                    | report ->
                        (* the solver emits auxiliary definitions (branch
                           currents, potential differences) that are
                           legitimately unused — dead-code reporting is
                           for user-written assignments only *)
                        bounded_findings ?amplitude_budget ~input_bound
                          ~report_dead:false ~span_of_target:span_of_var
                          report.Flow.program
                    | exception _ -> []
                in
                base @ sem
          end
        with
        | deep -> topo @ deep
        | exception Invalid_argument msg -> topo @ [ Diag.error "AMS030" msg ]
      end

let signal_flow_findings ?amplitude_budget ~input_bound ~dt top
    (flat : Elaborate.flat) =
  match Elaborate.signal_flow_assignments flat with
  | exception Elaborate.Elab_error (msg, sp) -> [ ams003 (msg, sp) ]
  | assigns ->
      let spans =
        List.map
          (fun (c : Elaborate.contribution) -> c.Elaborate.span)
          flat.Elaborate.contributions
      in
      let pairs = List.combine assigns spans in
      let inputs = flat.Elaborate.input_ports in
      let target_bases =
        List.map (fun ((v : Expr.var), _) -> v.Expr.base) assigns
      in
      let is_defined (v : Expr.var) =
        match v.Expr.base with
        | Expr.Signal s -> List.mem s inputs
        | Expr.Param _ -> true
        | base -> List.mem base target_bases
      in
      (* AMS030: a quantity read but neither an input nor a target. *)
      let seen = Hashtbl.create 8 in
      let undefined =
        List.concat_map
          (fun ((_, rhs), sp) ->
            Expr.Var_set.elements (Expr.vars rhs)
            |> List.filter_map (fun (v : Expr.var) ->
                   let name = Expr.var_name { v with Expr.delay = 0 } in
                   if is_defined v || Hashtbl.mem seen name then None
                   else begin
                     Hashtbl.replace seen name ();
                     Some
                       (Diag.error ~span:sp ~subject:name "AMS030"
                          (Printf.sprintf
                             "quantity %s is read but never defined" name))
                   end))
          pairs
      in
      if undefined <> [] then undefined
      else begin
        (* Outputs of the converted program: the targets driving
           declared output ports, else everything — the narrower the
           output set, the more the value-range passes can say about
           interior quantities (constants, dead code). *)
        let drives_port (v : Expr.var) =
          let port n = List.mem n flat.Elaborate.output_ports in
          match v.Expr.base with
          | Expr.Potential (a, b) | Expr.Flow (a, b) -> port a || port b
          | Expr.Signal s -> port s
          | Expr.Param _ -> false
        in
        let port_outs =
          List.filter_map
            (fun ((t : Expr.var), _) -> if drives_port t then Some t else None)
            assigns
        in
        let outs = if port_outs <> [] then port_outs else List.map fst assigns in
        match
          Flow.convert_signal_flow ~name:top ~inputs ~outputs:outs
            ~contributions:assigns ~dt
        with
        | program ->
            (* value-range passes over the converted program; span each
               finding at the contribution that defined its target *)
            let span_of_target (v : Expr.var) =
              List.find_map
                (fun (((t : Expr.var), _), sp) ->
                  if Expr.equal_var t v then Some sp else None)
                pairs
            in
            bounded_findings ?amplitude_budget ~input_bound ~span_of_target
              program
        | exception Solve.Nonlinear v ->
            [
              Diag.error ~subject:(Expr.var_name v) "AMS042"
                (Printf.sprintf
                   "nonlinear self-reference on %s is outside the linear \
                    abstraction scope"
                   (Expr.var_name v));
            ]
        | exception Solve.Underdetermined msg -> [ Diag.error "AMS030" msg ]
        (* Fatal on this route: the direct conversion has no
           simultaneous solve to fall back on. *)
        | exception Amsvp_sf.Sfprogram.Undefined msg ->
            [ Diag.error "AMS030" msg ]
        | exception Invalid_argument msg -> [ Diag.error "AMS040" msg ]
      end

let flat_findings ?amplitude_budget ~input_bound ~dt top
    (flat : Elaborate.flat) =
  match Elaborate.classify flat with
  | `Conservative -> conservative_findings ?amplitude_budget ~input_bound ~dt flat
  | `Signal_flow ->
      signal_flow_findings ?amplitude_budget ~input_bound ~dt top flat

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let lint ?(lang = `Verilog_ams) ?top ?(inputs = []) ?(dt = 50e-9)
    ?amplitude_budget ?(input_bound = default_input_bound) ~file src =
  let parse, flatten, units =
    match lang with
    | `Verilog_ams ->
        (Parser.parse, (fun d ~top -> Elaborate.flatten d ~top), "modules")
    | `Vhdl_ams -> (Vparser.parse, Velaborate.flatten ~inputs, "entities")
  in
  match parse ~file src with
  | exception Lexer.Lex_error (msg, line, col) ->
      [ Diag.error ~span:(Diag.span ~file line col) "AMS001" msg ]
  | exception Parser.Parse_error (msg, line, col) ->
      [ Diag.error ~span:(Diag.span ~file line col) "AMS002" msg ]
  | [] -> [ Diag.error "AMS003" ("design contains no " ^ units) ]
  | design ->
      let top =
        match top with
        | Some t -> t
        | None -> (List.hd (List.rev design)).Ast.name
      in
      let deep =
        match flatten design ~top with
        | exception Elaborate.Elab_error (msg, sp) -> [ ams003 (msg, sp) ]
        | flat -> flat_findings ?amplitude_budget ~input_bound ~dt top flat
      in
      ast_findings design @ deep
