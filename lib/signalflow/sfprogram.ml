module Trace = Amsvp_util.Trace

type assignment = { target : Expr.var; expr : Expr.t }

type t = {
  name : string;
  inputs : string list;
  outputs : Expr.var list;
  assignments : assignment list;
  dt : float;
}

let is_input p name = List.mem name p.inputs

exception Undefined of string
exception Read_before_assigned of { reader : Expr.var; var : Expr.var }

let read_before_assigned_message reader var =
  Printf.sprintf "Sfprogram: %s reads %s before it is assigned in this step"
    (Expr.var_name reader) (Expr.var_name var)

let validate p =
  if p.dt <= 0.0 then invalid_arg "Sfprogram: dt must be positive";
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let undefined fmt = Printf.ksprintf (fun msg -> raise (Undefined msg)) fmt in
  let targets = Hashtbl.create 16 in
  List.iter
    (fun a ->
      if a.target.Expr.delay <> 0 then
        fail "Sfprogram: assignment to delayed variable %s"
          (Expr.var_name a.target);
      if Hashtbl.mem targets a.target.Expr.base then
        fail "Sfprogram: duplicate assignment to %s" (Expr.var_name a.target);
      Hashtbl.add targets a.target.Expr.base ())
    p.assignments;
  let assigned_so_far = Hashtbl.create 16 in
  List.iter
    (fun a ->
      if Expr.contains_ddt a.expr then
        fail "Sfprogram: %s has an un-discretised ddt/idt"
          (Expr.var_name a.target);
      Expr.Var_set.iter
        (fun v ->
          match v.Expr.base with
          | Expr.Param name -> fail "Sfprogram: unresolved parameter %s" name
          | Expr.Signal s when v.Expr.delay = 0 && is_input p s -> ()
          | base when v.Expr.delay >= 1 ->
              let input_history =
                match base with
                | Expr.Signal s -> is_input p s
                | Expr.Potential _ | Expr.Flow _ | Expr.Param _ -> false
              in
              if not (input_history || Hashtbl.mem targets base) then
                undefined "Sfprogram: %s reads history of unknown quantity %s"
                  (Expr.var_name a.target) (Expr.var_name v)
          | base when not (Hashtbl.mem targets base) ->
              undefined "Sfprogram: %s reads %s, which is never assigned"
                (Expr.var_name a.target) (Expr.var_name v)
          | base ->
              if not (Hashtbl.mem assigned_so_far base) then
                raise (Read_before_assigned { reader = a.target; var = v }))
        (Expr.vars a.expr);
      Hashtbl.add assigned_so_far a.target.Expr.base ())
    p.assignments;
  List.iter
    (fun o ->
      if not (Hashtbl.mem targets o.Expr.base) then
        undefined "Sfprogram: output %s is never assigned" (Expr.var_name o))
    p.outputs

let make ~name ~inputs ~outputs ~assignments ~dt =
  let p = { name; inputs; outputs; assignments; dt } in
  (match validate p with
  | () -> ()
  | exception Undefined msg -> invalid_arg msg
  | exception Read_before_assigned { reader; var } ->
      invalid_arg (read_before_assigned_message reader var));
  p

let fold_read_vars p f acc =
  List.fold_left
    (fun acc a -> Expr.Var_set.fold (fun v acc -> f acc v) (Expr.vars a.expr) acc)
    acc p.assignments

let max_delay p = fold_read_vars p (fun acc v -> max acc v.Expr.delay) 0

let state_vars p =
  let bases =
    fold_read_vars p
      (fun acc v ->
        if v.Expr.delay >= 1 then
          Expr.Var_set.add { v with Expr.delay = 0 } acc
        else acc)
      Expr.Var_set.empty
  in
  (* Keep only assigned targets (input histories are tracked separately). *)
  List.filter
    (fun (a : assignment) -> Expr.Var_set.mem a.target bases)
    p.assignments
  |> List.map (fun a -> a.target)

(* Demand closure: the bases an output or a declared read depends on,
   through the right-hand sides at any delay. *)
let demanded ?(reads = []) p =
  let rhs : (Expr.base, Expr.Var_set.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace rhs a.target.Expr.base (Expr.vars a.expr))
    p.assignments;
  let seen : (Expr.base, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec demand b =
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.add seen b ();
      match Hashtbl.find_opt rhs b with
      | None -> ()
      | Some vars -> Expr.Var_set.iter (fun v -> demand v.Expr.base) vars
    end
  in
  List.iter (fun (v : Expr.var) -> demand v.Expr.base) p.outputs;
  List.iter (fun (v : Expr.var) -> demand v.Expr.base) reads;
  seen

let is_live seen a = Hashtbl.mem seen a.target.Expr.base

let dead_targets p =
  let seen = demanded p in
  List.filter_map
    (fun a -> if is_live seen a then None else Some a.target)
    p.assignments

let pp ppf p =
  Format.fprintf ppf "@[<v>program %s (dt=%g)@," p.name p.dt;
  Format.fprintf ppf "inputs: %s@," (String.concat ", " p.inputs);
  Format.fprintf ppf "outputs: %s@,"
    (String.concat ", " (List.map Expr.var_name p.outputs));
  List.iter
    (fun a ->
      Format.fprintf ppf "  %s := %a@," (Expr.var_name a.target) Expr.pp a.expr)
    p.assignments;
  Format.fprintf ppf "@]"

(* Slot layout, shared by both execution engines. The allocation order
   is a deterministic function of the program structure alone (inputs
   in declaration order, then targets, then history levels discovered
   through the ordered [Var_set] of reads), so two programs with the
   same shape — as produced by the sweep engine's plan replay — get
   identical layouts, and a bytecode artifact compiled against one is
   valid for the other. *)
type layout = {
  l_table : (Expr.var, int) Hashtbl.t;
  l_count : int;
  l_input_slots : int array;
  l_output_slots : int array;
  l_rotations : (int * int) array;
}

let layout_of (p : t) =
  let table : (Expr.var, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let slot v =
    match Hashtbl.find_opt table v with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add table v i;
        i
  in
  (* Reserve slots: inputs first, then every variable read or written,
     then every intermediate delay level so histories can rotate. *)
  let l_input_slots =
    Array.of_list (List.map (fun s -> slot (Expr.signal s)) p.inputs)
  in
  List.iter (fun a -> ignore (slot a.target)) p.assignments;
  let depth : (Expr.base, int) Hashtbl.t = Hashtbl.create 16 in
  fold_read_vars p
    (fun () v ->
      if v.Expr.delay >= 1 then begin
        let d =
          match Hashtbl.find_opt depth v.Expr.base with
          | Some d -> max d v.Expr.delay
          | None -> v.Expr.delay
        in
        Hashtbl.replace depth v.Expr.base d
      end)
    ();
  let rotations = ref [] in
  Hashtbl.iter
    (fun base d ->
      for k = d downto 1 do
        let dst = slot { Expr.base; delay = k }
        and src = slot { Expr.base; delay = k - 1 } in
        rotations := (dst, src) :: !rotations
      done)
    depth;
  (* Rotation order: deepest level first for each base; the list was
     built deepest-first per base, and bases are independent, but the
     Hashtbl.iter interleaving preserves per-base order only if we
     keep the construction order. Reversing restores it. *)
  let l_rotations = Array.of_list (List.rev !rotations) in
  let l_output_slots = Array.of_list (List.map slot p.outputs) in
  {
    l_table = table;
    l_count = !next;
    l_input_slots;
    l_output_slots;
    l_rotations;
  }

let layout_slot lay v =
  match Hashtbl.find_opt lay.l_table v with
  | Some i -> i
  | None ->
      invalid_arg ("Sfprogram: unknown variable " ^ Expr.var_name v)

let layout_count lay = lay.l_count
let layout_input_slots lay = Array.copy lay.l_input_slots
let layout_output_slots lay = Array.copy lay.l_output_slots
let layout_rotations lay = Array.copy lay.l_rotations

let assignment_slots lay (p : t) =
  List.map (fun a -> (layout_slot lay a.target, a.expr)) p.assignments

(* The (slot, rhs) pairs of the live assignments only; the layout
   stays the full program's, so slots, facts and template pools agree
   with every other consumer of [layout_of]. *)
let live_slots lay seen (p : t) =
  List.filter_map
    (fun a ->
      if is_live seen a then Some (layout_slot lay a.target, a.expr) else None)
    p.assignments

let compile_live ?mode ?facts lay live =
  Compile.compile ?mode ?facts ~slot:(layout_slot lay) ~n_slots:lay.l_count live

let compile ?mode ?facts (p : t) =
  let lay = layout_of p in
  compile_live ?mode ?facts lay (live_slots lay (demanded p) p)

let rebind_compiled artifact (p : t) =
  let lay = layout_of p in
  Compile.rebind artifact ~slot:(layout_slot lay) ~n_slots:lay.l_count
    (live_slots lay (demanded p) p)

module Runner = struct
  module Obs = Amsvp_obs.Obs
  module Journal = Amsvp_obs.Journal

  type program = t

  (* Signal-flow interpreter counters: one tick = one [step] call, one
     op = one compiled assignment evaluated. *)
  let c_ticks = Obs.Counter.make ~help:"signal-flow steps" "amsvp_sf_ticks_total"

  let c_ops =
    Obs.Counter.make ~help:"signal-flow assignments evaluated"
      "amsvp_sf_ops_total"

  type engine = [ `Tree | `Bytecode ]

  type impl =
    | Tree_steps of (int * (float array -> float)) array
        (** target slot, compiled closure per assignment *)
    | Bytecode of Compile.t

  type t = {
    program : program;
    slots : float array;
        (** for [Bytecode], the whole register file; variable slots are
            the first [n_state] entries in both engines *)
    n_state : int;
    slot_of : Expr.var -> int;
    readable : bool array;
        (** per variable slot: an input or a live quantity (current or
            history); every other slot stays 0 and must not be read *)
    input_slots : int array;
    output_slots : int array;
    impl : impl;
    n_assign : int;
    rotations : (int * int) array;
        (** dst, src pairs applied (in order) after each step *)
  }

  let create ?(engine : engine = `Bytecode) ?compiled ?reads (p : program) =
    let lay = layout_of p in
    let seen = demanded ?reads p in
    let live = live_slots lay seen p in
    let readable = Array.make (max 1 lay.l_count) false in
    Hashtbl.iter
      (fun (v : Expr.var) s ->
        readable.(s) <-
          Hashtbl.mem seen v.Expr.base
          ||
          match v.Expr.base with
          | Expr.Signal name -> is_input p name
          | Expr.Potential _ | Expr.Flow _ | Expr.Param _ -> false)
      lay.l_table;
    let impl, slots =
      match engine with
      | `Tree ->
          let steps =
            Array.of_list
              (List.map
                 (fun (s, e) -> (s, Expr.compile (layout_slot lay) e))
                 live)
          in
          (Tree_steps steps, Array.make (max 1 lay.l_count) 0.0)
      | `Bytecode ->
          let artifact =
            match compiled with
            | Some a ->
                let fail fmt =
                  Printf.ksprintf
                    (fun m ->
                      invalid_arg
                        (Printf.sprintf "Sfprogram.Runner.create(%s): %s"
                           p.name m))
                    fmt
                in
                if Compile.n_slots a <> lay.l_count then
                  fail "compiled artifact has %d slots, program needs %d"
                    (Compile.n_slots a) lay.l_count
                else if
                  Compile.target_slots a
                  <> Array.of_list (List.map fst live)
                then
                  fail
                    "compiled artifact evaluates a different live set (%d \
                     assignments, this runner %d)"
                    (Array.length (Compile.target_slots a))
                    (List.length live)
                else a
            | None -> compile_live lay live
          in
          let slots = Array.make (max 1 (Compile.n_regs artifact)) 0.0 in
          Compile.load_consts artifact slots;
          (Bytecode artifact, slots)
    in
    {
      program = p;
      slots;
      n_state = lay.l_count;
      slot_of = layout_slot lay;
      readable;
      input_slots = lay.l_input_slots;
      output_slots = lay.l_output_slots;
      impl;
      n_assign = List.length live;
      (* a history no live assignment reads needs no rotation *)
      rotations =
        Array.of_list
          (List.filter
             (fun (dst, _) -> readable.(dst))
             (Array.to_list lay.l_rotations));
    }

  (* Only the variable slots are cleared: constant registers of the
     bytecode engine are loaded once at [create] and must survive, and
     temporaries are dead between steps by construction. *)
  let reset r = Array.fill r.slots 0 r.n_state 0.0

  (* One step over inputs already in their slots: the assignments,
     then the history rotations. *)
  let advance r =
    (match r.impl with
    | Tree_steps steps ->
        for i = 0 to Array.length steps - 1 do
          let tgt, f = steps.(i) in
          r.slots.(tgt) <- f r.slots
        done
    | Bytecode artifact -> Compile.exec artifact r.slots);
    for i = 0 to Array.length r.rotations - 1 do
      let dst, src = r.rotations.(i) in
      r.slots.(dst) <- r.slots.(src)
    done

  let check_arity r what n =
    if n <> Array.length r.input_slots then
      invalid_arg
        (Printf.sprintf "Sfprogram.Runner.%s(%s): expected %d input(s), got %d"
           what r.program.name
           (Array.length r.input_slots)
           n)

  let step r ~inputs =
    check_arity r "step" (Array.length inputs);
    for i = 0 to Array.length inputs - 1 do
      r.slots.(r.input_slots.(i)) <- inputs.(i)
    done;
    advance r;
    Obs.Counter.incr c_ticks;
    Obs.Counter.add c_ops r.n_assign

  let output r i = r.slots.(r.output_slots.(i))
  let read r v =
    let s = r.slot_of v in
    if not r.readable.(s) then
      invalid_arg
        (Printf.sprintf
           "Sfprogram.Runner.read(%s): %s reaches no output and is not \
            evaluated; declare it in ~reads"
           r.program.name (Expr.var_name v));
    r.slots.(s)

  type source = Fn of (float -> float) | Table of float array

  let run_into r ~sources ~t_stop ?observe trace =
    Obs.with_span ~cat:"sf" ~args:[ ("program", r.program.name) ] "sf.run"
    @@ fun () ->
    check_arity r "run" (Array.length sources);
    let dt = r.program.dt in
    let nsteps = int_of_float (Float.round (t_stop /. dt)) in
    Array.iter
      (function
        | Table a when Array.length a <= nsteps ->
            invalid_arg
              (Printf.sprintf
                 "Sfprogram.Runner.run(%s): input table of %d sample(s), \
                  %d steps need %d"
                 r.program.name (Array.length a) nsteps (nsteps + 1))
        | Table _ | Fn _ -> ())
      sources;
    reset r;
    Trace.reserve trace (nsteps + 1);
    let times, values = Trace.buffers trace in
    let slots = r.slots and out = r.output_slots.(0) in
    (* The reader closure is built once, outside the loop; when no
       observer is attached the per-step cost is a single branch. *)
    let reader = read r in
    let taken = ref 0 in
    (* Samples and counters are published once per run, also when
       [observe] aborts it: both then cover the steps actually taken. *)
    let publish () =
      Obs.Counter.add c_ticks !taken;
      Obs.Counter.add c_ops (!taken * r.n_assign);
      Trace.set_length trace (!taken + 1)
    in
    Fun.protect ~finally:publish (fun () ->
        times.(0) <- 0.0;
        values.(0) <- slots.(out);
        (match observe with None -> () | Some f -> f 0.0 reader);
        for i = 1 to nsteps do
          let t = float_of_int i *. dt in
          for k = 0 to Array.length sources - 1 do
            (* A store per branch: a shared one would box the table's
               float to match the function's boxed result. *)
            match sources.(k) with
            | Table a -> slots.(r.input_slots.(k)) <- a.(i)
            | Fn f -> slots.(r.input_slots.(k)) <- f t
          done;
          advance r;
          times.(i) <- t;
          values.(i) <- slots.(out);
          taken := i;
          match observe with None -> () | Some f -> f t reader
        done);
    if Journal.enabled () then begin
      (* Per-step traffic is a static property of the artifact; the
         journal records it once per run, scaled by the tick count. *)
      let base =
        [
          ("program", Journal.S r.program.name);
          ("ticks", Journal.I nsteps);
          ("assigns_per_tick", Journal.I r.n_assign);
        ]
      in
      let payload =
        match r.impl with
        | Tree_steps _ -> ("engine", Journal.S "tree") :: base
        | Bytecode artifact ->
            let tr = Compile.traffic artifact in
            ("engine", Journal.S "bytecode")
            :: base
            @ [
                ("instrs_per_tick", Journal.I (Compile.n_instrs artifact));
                ("reads_per_tick", Journal.I tr.Compile.t_reads);
                ("writes_per_tick", Journal.I tr.Compile.t_writes);
                ("flops_per_tick", Journal.I tr.Compile.t_flops);
                ("regs", Journal.I (Compile.n_regs artifact));
              ]
            @ List.map
                (fun (op, n) -> ("op." ^ op, Journal.I n))
                tr.Compile.t_opcode_mix
      in
      Journal.emit ~time:t_stop ~cat:"sf" "run" payload
    end

  let run r ~stimuli ~t_stop ?observe () =
    let trace = Trace.create ~capacity:1 () in
    run_into r ~sources:(Array.map (fun f -> Fn f) stimuli) ~t_stop ?observe
      trace;
    trace
end
