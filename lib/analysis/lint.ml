module Diag = Amsvp_diag.Diag
module Ast = Amsvp_vams.Ast
module Parser = Amsvp_vams.Parser
module Elaborate = Amsvp_vams.Elaborate
module Vparser = Amsvp_vhdlams.Vparser
module Velaborate = Amsvp_vhdlams.Velaborate
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Flow = Amsvp_core.Flow
module Check = Amsvp_core.Check

type lang = Elaborate.lang

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

let ast_module_findings ~lang ~overridden (m : Ast.module_def) =
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
        let what, name =
          match (kind, lang) with
          | Knet, _ -> ("net", name)
          | Kreal, _ -> ("analog variable", name)
          | Kbranch, `Verilog_ams -> ("branch", name)
          (* a VHDL-AMS quantity is lowered onto a named branch *)
          | Kbranch, `Vhdl_ams -> ("quantity", Vparser.quantity_of_branch name)
          | Kparam, _ -> ("parameter", name)
          | Kground, _ -> ("ground", name)
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

let ast_findings ~lang (design : Ast.design) =
  let overridden = overridden_params design in
  List.concat_map (ast_module_findings ~lang ~overridden) design

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

(* The continued circuit with its sensing probes, and its
   ground-referenced node voltages as the outputs: asking for every
   branch potential forces Assemble to define the floating ones
   algebraically, which hides the state form (and its time constants)
   from the safety pass. *)
let with_node_voltages circuit =
  let probed = Flow.insert_probes circuit ~outputs:[] in
  let all =
    List.map Component.potential_var (Circuit.devices probed)
    |> List.sort_uniq Expr.compare_var
  in
  let to_ground (v : Expr.var) =
    match v.Expr.base with
    | Expr.Potential (_, b) -> b = Circuit.ground probed
    | _ -> false
  in
  (probed, match List.filter to_ground all with [] -> all | vs -> vs)

(* One run of the flow that goes on past a floating island
   (AMS020/021) on the grounded part of the network, then the safety
   pass over its definitions and the value ranges of its program. *)
let conservative_findings ?amplitude_budget ~input_bound ~dt
    (flat : Elaborate.flat) =
  match Elaborate.front_end (fun () -> Elaborate.to_circuit flat) with
  | Error f -> [ f ]
  | Ok circuit ->
      let spans = lazy (Elaborate.spans flat) in
      let s =
        Flow.run ~spans
          ~continue_with:(fun c -> with_node_voltages (Circuit.grounded c))
          circuit ~outputs:[] ~dt
      in
      let span_of v = (Lazy.force spans).Flow.of_var v in
      let safety =
        match s.Flow.assembled with
        | Some asm -> Check.abstraction_safety ~span_of ~dt asm
        | None -> []
      in
      let values =
        match s.Flow.solved with
        | Some { Flow.program; _ } ->
            (* the solver emits auxiliary definitions (branch currents,
               potential differences) that are legitimately unused —
               dead-code reporting is for user-written assignments
               only *)
            bounded_findings ?amplitude_budget ~input_bound ~report_dead:false
              ~span_of_target:span_of program
        | None -> []
      in
      s.Flow.findings @ safety @ values

let signal_flow_findings ?amplitude_budget ~input_bound ~dt top
    (flat : Elaborate.flat) =
  match
    Elaborate.front_end (fun () -> Elaborate.signal_flow_assignments flat)
  with
  | Error f -> [ f ]
  | Ok assigns -> (
      (* Outputs of the converted program: the targets driving declared
         output ports, else everything — the narrower the output set,
         the more the value-range passes can say about interior
         quantities (constants, dead code). *)
      let port n = List.mem n flat.Elaborate.output_ports in
      let drives_port ((t : Expr.var), _) =
        match t.Expr.base with
        | Expr.Potential (a, b) | Expr.Flow (a, b) -> port a || port b
        | Expr.Signal s -> port s
        | Expr.Param _ -> false
      in
      let outs =
        match List.filter drives_port assigns with [] -> assigns | outs -> outs
      in
      let spans = lazy (Elaborate.spans flat) in
      match
        Flow.signal_flow ~spans ~name:top ~inputs:flat.Elaborate.input_ports
          ~outputs:(List.map fst outs) ~contributions:assigns ~dt
      with
      | Error findings -> findings
      | Ok program ->
          bounded_findings ?amplitude_budget ~input_bound
            ~span_of_target:(fun v -> (Lazy.force spans).Flow.of_var v)
            program)

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
  match Elaborate.front_end ~file (fun () -> parse ~file src) with
  | Error f -> [ f ]
  | Ok [] -> [ Diag.error "AMS003" ("design contains no " ^ units) ]
  | Ok design ->
      let top =
        match top with
        | Some t -> t
        | None -> (List.hd (List.rev design)).Ast.name
      in
      let deep =
        match Elaborate.front_end (fun () -> flatten design ~top) with
        | Error f -> [ f ]
        | Ok flat -> (
            match Elaborate.classify flat with
            | `Conservative ->
                conservative_findings ?amplitude_budget ~input_bound ~dt flat
            | `Signal_flow ->
                signal_flow_findings ?amplitude_budget ~input_bound ~dt top
                  flat)
      in
      ast_findings ~lang design @ deep
