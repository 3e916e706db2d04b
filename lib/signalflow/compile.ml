module Obs = Amsvp_obs.Obs

(* Three-address instructions over one float register file. All
   operands are plain register indices, validated at build time, so
   [exec] can use unchecked array accesses. In the code, conditions are
   materialised as 0.0 / 1.0 floats; the executable form tests most of
   them inline. *)
type instr =
  | Mov of int * int
  | Neg of int * int
  | Add of int * int * int
  | Sub of int * int * int
  | Mul of int * int * int
  | Div of int * int * int
  | App of Expr.unary_fun * int * int
  | Cmp of Expr.cmp * int * int * int
  | Andb of int * int * int
  | Orb of int * int * int
  | Notb of int * int
  | Sel of int * int * int * int  (** dst, cond, then, else *)
  | Lin of int * int array
      (** [d := ((a0*b0 + a1*b1) + ...)] over the operands
          [[|a0; b0; a1; b1; ...|]], at least two terms; a term whose
          [b] is [-1] is the plain register [a] (no product) *)
  | Rows of int array
      (** only in the executable form: a run of three-product rows,
          seven registers per row, [[|d; a0; b0; a1; b1; a2; b2|]] for
          [d := (a0*b0 + a1*b1) + a2*b2] *)
  | Pick of bool * int * int * int
      (** only in the executable form: [Pick (strict, a, b, k)] tests
          [a < b] ([strict]) or [a <= b] on registers [a] and [b]; when
          the test is false (NaN included) the next [k] instructions
          (the then arm and its [Jmp]) are skipped, landing on the else
          arm *)
  | Jmp of int
      (** only in the executable form, ending a then arm: skip the next
          [k] instructions (the else arm) *)
  | Pick_rows of bool * int * int * int * int array * int array
      (** only in the executable form: [Pick_rows (strict, a, b, d,
          yes, no)] tests as [Pick] does, then evaluates one row of
          products, [yes] when the test holds and [no] otherwise (the
          operands of a [Lin], one product allowed), into [d]: a
          conditional whose arms are each one row, with no dispatch
          for the arm *)

type t = {
  shape : string;
      (** structural key: slot layout + expression structure, constants
          elided — two programs with equal shapes share register
          allocation and scheduling *)
  n_slots : int;
  n_regs : int;
  consts : float array;
      (** [consts.(i)] preloads register [n_slots + i]: one position per
          literal occurrence, in [collect_consts] order *)
  targets : int array;  (** target slot of each compiled assignment *)
  code : instr array;
  exe : instr array;
      (** what {!exec} runs: [code] with each lazy conditional group
          folded into a [Pick] and each maximal run of three-product
          rows into one [Rows] block *)
  rot_dst : int array;
  rot_src : int array;
      (** history rotations, after the instructions:
          [regs.(rot_dst.(i)) <- regs.(rot_src.(i))] in order of [i] *)
  div_targets : int array array;
      (** per [Div] of [code], in order: the target slots of the
          assignments whose right-hand side contains that division *)
}

let n_slots t = t.n_slots
let n_regs t = t.n_regs
let n_instrs t = Array.length t.code
let n_consts t = Array.length t.consts
let target_slots t = Array.copy t.targets
let div_targets t = Array.map Array.copy t.div_targets

let lazy_conditionals t =
  Array.fold_left
    (fun n -> function Pick _ | Pick_rows _ -> n + 1 | _ -> n)
    0 t.exe

(* ---- observability ---- *)

let c_programs =
  Obs.Counter.make ~help:"signal-flow programs compiled to bytecode"
    "amsvp_sf_compiled_programs_total"

let c_instrs =
  Obs.Counter.make ~help:"bytecode instructions emitted"
    "amsvp_sf_compiled_instrs_total"

let c_rebinds =
  Obs.Counter.make ~help:"artifacts re-targeted without recompiling"
    "amsvp_sf_compile_rebinds_total"

let h_compile_seconds =
  Obs.Histogram.make ~help:"wall-clock seconds per bytecode compilation"
    ~buckets:[| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1 |]
    "amsvp_sf_compile_seconds"

(* ---- value-numbering DAG ---- *)

type op =
  | Oneg
  | Oadd
  | Osub
  | Omul
  | Odiv
  | Oapp of Expr.unary_fun
  | Ocmp of Expr.cmp
  | Oand
  | Oor
  | Onot
  | Osel

type node = Nconst of int  (** pool index *) | Nread of int  (** slot *) | Nop of op * int array

(* Hash-consing key. Every literal occurrence is its own pool
   position and never unifies, so the schedule does not depend on
   constant values. Reads are keyed by (slot, version) with the version
   bumped at each store, so a read before and after an assignment to
   the same slot cannot unify. *)
type key = Kread of int * int | Kop of op * int list

(* ---- structural shape ---- *)

(* Built at every rebind, so with [Buffer] calls rather than [Printf]. *)
let shape_of ~slot ~n_slots assigns =
  let b = Buffer.create 256 in
  let int tag i =
    Buffer.add_char b tag;
    Buffer.add_string b (string_of_int i)
  in
  int 'S' n_slots;
  let rec walk e =
    match e with
    | Expr.Const _ -> Buffer.add_char b 'C'
    | Expr.Var x -> int 'v' (slot x)
    | Expr.Neg a ->
        Buffer.add_string b "(-";
        walk a;
        Buffer.add_char b ')'
    | Expr.Add (x, y) -> bin "+" x y
    | Expr.Sub (x, y) -> bin "-" x y
    | Expr.Mul (x, y) -> bin "*" x y
    | Expr.Div (x, y) -> bin "/" x y
    | Expr.Ddt _ | Expr.Idt _ ->
        invalid_arg "Compile: ddt/idt cannot be compiled"
    | Expr.App (f, a) ->
        Buffer.add_char b '(';
        Buffer.add_string b (Expr.fun_name f);
        Buffer.add_char b ' ';
        walk a;
        Buffer.add_char b ')'
    | Expr.Cond (c, x, y) ->
        Buffer.add_string b "(?";
        walk_cond c;
        Buffer.add_char b ' ';
        walk x;
        Buffer.add_char b ' ';
        walk y;
        Buffer.add_char b ')'
  and bin tag x y =
    Buffer.add_char b '(';
    Buffer.add_string b tag;
    Buffer.add_char b ' ';
    walk x;
    Buffer.add_char b ' ';
    walk y;
    Buffer.add_char b ')'
  and walk_cond c =
    match c with
    | Expr.Cmp (op, x, y) -> bin (Expr.cmp_name op) x y
    | Expr.And (c1, c2) ->
        Buffer.add_string b "(&& ";
        walk_cond c1;
        Buffer.add_char b ' ';
        walk_cond c2;
        Buffer.add_char b ')'
    | Expr.Or (c1, c2) ->
        Buffer.add_string b "(|| ";
        walk_cond c1;
        Buffer.add_char b ' ';
        walk_cond c2;
        Buffer.add_char b ')'
    | Expr.Not c ->
        Buffer.add_string b "(! ";
        walk_cond c;
        Buffer.add_char b ')'
  in
  List.iter
    (fun (tslot, e) ->
      int '|' tslot;
      Buffer.add_string b ":=";
      walk e)
    assigns;
  Buffer.contents b

(* Literal constants in the left-to-right traversal order used by the
   lowering pass: the pool layout of every artifact, so {!rebind} can
   patch values positionally. *)
let collect_consts assigns =
  let acc = ref [] in
  let rec walk e =
    match e with
    | Expr.Const c -> acc := c :: !acc
    | Expr.Var _ -> ()
    | Expr.Neg a | Expr.App (_, a) | Expr.Ddt a | Expr.Idt a -> walk a
    | Expr.Add (x, y) | Expr.Sub (x, y) | Expr.Mul (x, y) | Expr.Div (x, y) ->
        walk x;
        walk y
    | Expr.Cond (c, x, y) ->
        walk_cond c;
        walk x;
        walk y
  and walk_cond = function
    | Expr.Cmp (_, x, y) ->
        walk x;
        walk y
    | Expr.And (c1, c2) | Expr.Or (c1, c2) ->
        walk_cond c1;
        walk_cond c2
    | Expr.Not c -> walk_cond c
  in
  List.iter (fun (_, e) -> walk e) assigns;
  Array.of_list (List.rev !acc)

(* ---- compilation ---- *)

let srcs = function
  | Mov (_, s) | Neg (_, s) | Notb (_, s) -> [ s ]
  | Add (_, a, b) | Sub (_, a, b) | Mul (_, a, b) | Div (_, a, b)
  | Andb (_, a, b) | Orb (_, a, b) ->
      [ a; b ]
  | App (_, _, a) -> [ a ]
  | Cmp (_, _, a, b) -> [ a; b ]
  | Sel (_, c, a, b) -> [ c; a; b ]
  | Lin (_, ops) -> List.filter (fun r -> r >= 0) (Array.to_list ops)
  | Rows _ | Pick _ | Jmp _ | Pick_rows _ -> assert false

let dst_of = function
  | Mov (d, _) | Neg (d, _) | Notb (d, _)
  | Add (d, _, _) | Sub (d, _, _) | Mul (d, _, _) | Div (d, _, _)
  | Andb (d, _, _) | Orb (d, _, _)
  | App (_, d, _)
  | Cmp (_, d, _, _)
  | Sel (d, _, _, _)
  | Lin (d, _) ->
      d
  | Rows _ | Pick _ | Jmp _ | Pick_rows _ -> assert false

(* [relabel fd fs i]: [i] with its destination mapped by [fd] and its
   sources by [fs]; the plain-term marker of a [Lin] stays. *)
let relabel fd fs = function
  | Mov (d, a) -> Mov (fd d, fs a)
  | Neg (d, a) -> Neg (fd d, fs a)
  | Notb (d, a) -> Notb (fd d, fs a)
  | Add (d, a, b) -> Add (fd d, fs a, fs b)
  | Sub (d, a, b) -> Sub (fd d, fs a, fs b)
  | Mul (d, a, b) -> Mul (fd d, fs a, fs b)
  | Div (d, a, b) -> Div (fd d, fs a, fs b)
  | Andb (d, a, b) -> Andb (fd d, fs a, fs b)
  | Orb (d, a, b) -> Orb (fd d, fs a, fs b)
  | App (f, d, a) -> App (f, fd d, fs a)
  | Cmp (c, d, a, b) -> Cmp (c, fd d, fs a, fs b)
  | Sel (d, c, a, b) -> Sel (fd d, fs c, fs a, fs b)
  | Lin (d, ops) ->
      Lin (fd d, Array.map (fun r -> if r < 0 then r else fs r) ops)
  | Rows _ | Pick _ | Jmp _ | Pick_rows _ -> assert false

(* The executable form of [code]. [picks] maps the index of each
   [Cmp] that opens a lazy conditional group [Cmp; then arm; else arm;
   Sel] to the lengths of its two arms. A group whose arms are one
   product or row each becomes one [Pick_rows]; any other becomes
   [Pick; then arm; Jmp; else arm], each arm's last instruction
   retargeted at the [Sel]'s destination. Either way one step runs the
   taken arm only and never materialises the condition. Each maximal
   run of consecutive rows of exactly three products, inside an arm or
   not, becomes one [Rows] block, so [exec] dispatches once per run
   and steps each row with no term loop. *)
let blocks code picks =
  let code = Array.copy code in
  (* the executable form of [code.(lo .. hi - 1)], in order *)
  let rec range lo hi =
    let out = ref [] and run = ref [] in
    let close () =
      if !run <> [] then begin
        out := Rows (Array.concat (List.rev !run)) :: !out;
        run := []
      end
    in
    let k = ref lo in
    while !k < hi do
      (match (code.(!k), Hashtbl.find_opt picks !k) with
      | Cmp (op, _, x, y), Some (n_then, n_else) ->
          close ();
          let sel = !k + n_then + n_else + 1 in
          let d = dst_of code.(sel) in
          (* [x > y] is [y < x] and [x >= y] is [y <= x], NaN included *)
          let strict, a, b =
            match op with
            | Expr.Lt -> (true, x, y)
            | Expr.Le -> (false, x, y)
            | Expr.Gt -> (true, y, x)
            | Expr.Ge -> (false, y, x)
          in
          let row = function
            | Mul (_, p, q) -> Some [| p; q |]
            | Lin (_, ops) -> Some ops
            | _ -> None
          in
          (match (n_then, n_else, row code.(!k + 1), row code.(!k + 2)) with
          | 1, 1, Some yes, Some no ->
              out := Pick_rows (strict, a, b, d, yes, no) :: !out
          | _ ->
              let arm lo n =
                let last = lo + n - 1 in
                code.(last) <- relabel (fun _ -> d) Fun.id code.(last);
                range lo (lo + n)
              in
              let yes = arm (!k + 1) n_then
              and no = arm (!k + 1 + n_then) n_else in
              out :=
                List.rev_append
                  ((Pick (strict, a, b, List.length yes + 1) :: yes)
                  @ (Jmp (List.length no) :: no))
                  !out);
          k := sel
      | Lin (d, ([| _; b0; _; b1; _; b2 |] as ops)), _
        when b0 >= 0 && b1 >= 0 && b2 >= 0 ->
          run := Array.append [| d |] ops :: !run
      | i, _ ->
          close ();
          out := i :: !out);
      incr k
    done;
    close ();
    List.rev !out
  in
  Array.of_list (range 0 (Array.length code))

let compile_unobserved ~slot ~n_slots ~rotations assigns =
  let shape = shape_of ~slot ~n_slots assigns in
  Array.iter
    (fun (d, s) ->
      if d < 0 || d >= n_slots || s < 0 || s >= n_slots then
        invalid_arg
          (Printf.sprintf "Compile: rotation %d <- %d out of range [0,%d)" d s
             n_slots))
    rotations;
  (* checked [slot]: every variable register must stay below the slot
     region so the unchecked accesses of [exec] are safe. *)
  let slot v =
    let s = slot v in
    if s < 0 || s >= n_slots then
      invalid_arg
        (Printf.sprintf "Compile: slot %d of %s out of range [0,%d)" s
           (Expr.var_name v) n_slots);
    s
  in
  (* -- pass 1: lower to a value-numbered DAG -- *)
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let keys : (key, int) Hashtbl.t = Hashtbl.create 64 in
  let pool_n = ref 0 in
  let version = Array.make (max 1 n_slots) 0 in
  let next_id = ref 0 in
  let fresh node =
    let id = !next_id in
    incr next_id;
    Hashtbl.add nodes id node;
    id
  in
  (* every occurrence is its own rebindable pool position *)
  let mk_const () =
    let i = !pool_n in
    incr pool_n;
    fresh (Nconst i)
  in
  let mk_read s =
    let k = Kread (s, version.(s)) in
    match Hashtbl.find_opt keys k with
    | Some id -> id
    | None ->
        let id = fresh (Nread s) in
        Hashtbl.add keys k id;
        id
  in
  let mk_op op args =
    let k = Kop (op, Array.to_list args) in
    match Hashtbl.find_opt keys k with
    | Some id -> id
    | None ->
        let id = fresh (Nop (op, args)) in
        Hashtbl.add keys k id;
        id
  in
  (* the target slots of the assignments whose tree holds each division
     node, newest first; [cur] is the assignment being lowered *)
  let div_users : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let cur = ref (-1) in
  (* explicit left-to-right sequencing: pool positions must match the
     traversal order of [collect_consts] *)
  let rec lower e =
    match e with
    | Expr.Const _ -> mk_const ()
    | Expr.Var x -> mk_read (slot x)
    | Expr.Neg a ->
        let a' = lower a in
        mk_op Oneg [| a' |]
    | Expr.Add (x, y) ->
        let x' = lower x in
        let y' = lower y in
        mk_op Oadd [| x'; y' |]
    | Expr.Sub (x, y) ->
        let x' = lower x in
        let y' = lower y in
        mk_op Osub [| x'; y' |]
    | Expr.Mul (x, y) ->
        let x' = lower x in
        let y' = lower y in
        mk_op Omul [| x'; y' |]
    | Expr.Div (x, y) ->
        let x' = lower x in
        let y' = lower y in
        let id = mk_op Odiv [| x'; y' |] in
        (match Hashtbl.find_opt div_users id with
        | Some (t :: _) when t = !cur -> ()
        | users ->
            Hashtbl.replace div_users id (!cur :: Option.value ~default:[] users));
        id
    | Expr.Ddt _ | Expr.Idt _ ->
        invalid_arg "Compile: ddt/idt cannot be compiled"
    | Expr.App (f, a) ->
        let a' = lower a in
        mk_op (Oapp f) [| a' |]
    | Expr.Cond (c, x, y) ->
        let c' = lower_cond c in
        let x' = lower x in
        let y' = lower y in
        mk_op Osel [| c'; x'; y' |]
  and lower_cond c =
    match c with
    | Expr.Cmp (op, x, y) ->
        let x' = lower x in
        let y' = lower y in
        mk_op (Ocmp op) [| x'; y' |]
    | Expr.And (c1, c2) ->
        let a = lower_cond c1 in
        let b = lower_cond c2 in
        mk_op Oand [| a; b |]
    | Expr.Or (c1, c2) ->
        let a = lower_cond c1 in
        let b = lower_cond c2 in
        mk_op Oor [| a; b |]
    | Expr.Not c ->
        let a = lower_cond c in
        mk_op Onot [| a |]
  in
  let roots =
    List.map
      (fun (tslot, e) ->
        if tslot < 0 || tslot >= n_slots then
          invalid_arg
            (Printf.sprintf "Compile: target slot %d out of range [0,%d)"
               tslot n_slots);
        cur := tslot;
        let r = lower e in
        (* the store makes this value the current content of the
           target slot: bump the version and let later reads of the
           target reuse the computed node instead of re-loading *)
        version.(tslot) <- version.(tslot) + 1;
        Hashtbl.replace keys (Kread (tslot, version.(tslot))) r;
        (tslot, r))
      assigns
  in
  let consts = collect_consts assigns in
  let const_base = n_slots in
  let temp_base = n_slots + Array.length consts in
  (* -- pass 2: demand-driven scheduling over virtual registers.
     Nodes never demanded from an assignment root are dead and emit
     nothing. The first emission of a root lands directly in its
     target slot (safe: each slot is stored at most once per step, and
     validated programs cannot read a target before its assignment). -- *)
  let vcode = ref [] in
  let n_vinstr = ref 0 in
  let push i =
    vcode := i :: !vcode;
    incr n_vinstr
  in
  let vreg : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* the division node each [Div] computes, by destination register *)
  let div_node : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let next_vtemp = ref temp_base in
  let rec emit ?dst id =
    match Hashtbl.find_opt vreg id with
    | Some r -> r
    | None -> (
        match Hashtbl.find nodes id with
        | Nconst pix ->
            let r = const_base + pix in
            Hashtbl.add vreg id r;
            r
        | Nread s ->
            Hashtbl.add vreg id s;
            s
        | Nop (op, args) ->
            let n = Array.length args in
            let regs = Array.make n 0 in
            for i = 0 to n - 1 do
              regs.(i) <- emit args.(i)
            done;
            let d =
              match dst with
              | Some d -> d
              | None ->
                  let d = !next_vtemp in
                  incr next_vtemp;
                  d
            in
            (match (op, regs) with
            | Oneg, [| a |] -> push (Neg (d, a))
            | Oadd, [| a; b |] -> push (Add (d, a, b))
            | Osub, [| a; b |] -> push (Sub (d, a, b))
            | Omul, [| a; b |] -> push (Mul (d, a, b))
            | Odiv, [| a; b |] ->
                Hashtbl.replace div_node d id;
                push (Div (d, a, b))
            | Oapp f, [| a |] -> push (App (f, d, a))
            | Ocmp c, [| a; b |] -> push (Cmp (c, d, a, b))
            | Oand, [| a; b |] -> push (Andb (d, a, b))
            | Oor, [| a; b |] -> push (Orb (d, a, b))
            | Onot, [| a |] -> push (Notb (d, a))
            | Osel, [| c; a; b |] -> push (Sel (d, c, a, b))
            | _ -> assert false);
            Hashtbl.add vreg id d;
            d)
  in
  List.iter
    (fun (tslot, r) ->
      match Hashtbl.find_opt vreg r with
      | Some reg -> if reg <> tslot then push (Mov (tslot, reg))
      | None -> (
          match Hashtbl.find nodes r with
          | Nop _ -> ignore (emit ~dst:tslot r)
          | Nconst _ | Nread _ ->
              let reg = emit r in
              push (Mov (tslot, reg))))
    roots;
  (* -- sum-of-products fusion: an addition becomes a [Lin] row when
     the instruction just before it defines a temporary that only the
     row reads; a [Mul] then replaces the plain term it feeds, and a
     row that is the leftmost term is spliced in front. The row keeps
     absorbing while that holds. Every absorbed instruction writes a
     temporary and the group is a run of consecutive instructions, so
     no slot store falls between the reads of its operands. Terms stay
     in source order and [exec] rounds each product, then each partial
     sum left to right, so results stay bit-identical (no fused
     [Float.fma]). A product that CSE shares has several readers and
     stays a [Mul]; when one sits between the row and what the row
     would absorb, and neither reads the other's result, the product
     is scheduled first. -- *)
  let vcode =
    let uses = Array.make (max 1 (!next_vtemp - temp_base)) 0 in
    let use s = if s >= temp_base then uses.(s - temp_base) <- uses.(s - temp_base) + 1 in
    List.iter (fun i -> List.iter use (srcs i)) !vcode;
    let single t = t >= temp_base && uses.(t - temp_base) = 1 in
    let absorb ops = function
      | Mul (t, a, b) when single t ->
          (* one reader, so [t] is at most one plain term *)
          let rec find j =
            if 2 * j >= Array.length ops then None
            else if ops.(2 * j) = t && ops.((2 * j) + 1) < 0 then begin
              let ops = Array.copy ops in
              ops.(2 * j) <- a;
              ops.((2 * j) + 1) <- b;
              Some ops
            end
            else find (j + 1)
          in
          find 0
      | Lin (t, row) when single t && ops.(0) = t && ops.(1) < 0 ->
          Some (Array.append row (Array.sub ops 2 (Array.length ops - 2)))
      | _ -> None
    in
    (* [out] is the code so far, newest first *)
    let rec push out i =
      let row =
        match i with
        | Add (d, x, y) -> Some (d, [| x; -1; y; -1 |])
        | Lin (d, ops) -> Some (d, ops)
        | _ -> None
      in
      match (row, out) with
      | Some (d, ops), prev :: rest -> (
          match (absorb ops prev, prev, rest) with
          | Some ops, _, _ -> push rest (Lin (d, ops))
          | None, Mul (t, a, b), next :: rest
            when t >= temp_base
                 && (not (List.mem (dst_of next) [ a; b ]))
                 && not (List.mem t (srcs next)) -> (
              match absorb ops next with
              | Some ops -> (
                  match push rest (Lin (d, ops)) with
                  | row :: out -> row :: prev :: out
                  | [] -> assert false)
              | None -> i :: out)
          | None, _, _ -> i :: out)
      | _ -> i :: out
    in
    Array.of_list (List.rev (List.fold_left push [] (List.rev !vcode)))
  in
  (* -- lazy conditionals: a [Sel] whose condition is a [Cmp] only it
     reads and whose arms are temporaries only it reads is gathered
     into one run [Cmp; then arm; else arm; Sel], which [blocks] turns
     into a [Pick] or [Pick_rows]. An arm is its root and,
     transitively, every instruction whose result only the arm reads;
     a conditional inside an arm moves with it, so groups nest. The
     instructions between the [Cmp] and the [Sel] that neither arm owns
     (results CSE shares with the rest of the step) move, in order,
     ahead of the [Cmp] and stay eager. That is sound because all of
     them write temporaries: nothing in the run reads an arm's results
     but the arm and the [Sel], and nothing shared reads the
     condition. A run holding a slot store, or an arm instruction
     outside the run, stays eager. -- *)
  let vcode, picks =
    let code = vcode and n = Array.length vcode in
    let temp r = r >= temp_base in
    let uses = Array.make (max 1 (!next_vtemp - temp_base)) 0 in
    let def = Array.make (Array.length uses) (-1) in
    Array.iter
      (fun i ->
        List.iter
          (fun r -> if temp r then uses.(r - temp_base) <- uses.(r - temp_base) + 1)
          (srcs i))
      code;
    let set_defs lo hi =
      for k = lo to hi do
        let d = dst_of code.(k) in
        if temp d then def.(d - temp_base) <- k
      done
    in
    set_defs 0 (n - 1);
    let single r = temp r && uses.(r - temp_base) = 1 && def.(r - temp_base) >= 0 in
    (* condition temporary -> lengths of the then and else arms *)
    let groups : (int, int * int) Hashtbl.t = Hashtbl.create 4 in
    for s = 0 to n - 1 do
      match code.(s) with
      | Sel (_, c, a, b) when single c && single a && single b -> (
          let kc = def.(c - temp_base) in
          match code.(kc) with
          | Cmp _ ->
              (* instruction index -> [true] in the then arm, [false] in
                 the else arm *)
              let owner : (int, bool) Hashtbl.t = Hashtbl.create 8 in
              let gather in_then root =
                (* readers of each temporary within this arm *)
                let seen = Hashtbl.create 8 in
                let rec go k =
                  Hashtbl.replace owner k in_then;
                  List.iter
                    (fun r ->
                      if temp r then begin
                        let j = r - temp_base in
                        let m = 1 + Option.value ~default:0 (Hashtbl.find_opt seen j) in
                        Hashtbl.replace seen j m;
                        if m = uses.(j) && def.(j) >= 0 then go def.(j)
                      end)
                    (srcs code.(k))
                in
                go def.(root - temp_base)
              in
              gather true a;
              gather false b;
              let shared = ref [] and yes = ref [] and no = ref [] in
              for k = s - 1 downto kc + 1 do
                let into =
                  match Hashtbl.find_opt owner k with
                  | Some true -> yes
                  | Some false -> no
                  | None -> shared
                in
                into := code.(k) :: !into
              done;
              if
                Hashtbl.fold (fun k _ ok -> ok && k > kc && k < s) owner true
                && List.for_all (fun i -> temp (dst_of i)) !shared
              then begin
                List.iteri
                  (fun j i -> code.(kc + j) <- i)
                  (!shared @ (code.(kc) :: !yes) @ !no);
                set_defs kc (s - 1);
                Hashtbl.replace groups c (List.length !yes, List.length !no)
              end
          | _ -> ())
      | _ -> ()
    done;
    (* by the index of each group's [Cmp], now that none moves *)
    let picks = Hashtbl.create 4 in
    Array.iteri
      (fun k i ->
        match i with
        | Cmp (_, c, _, _) when Hashtbl.mem groups c ->
            Hashtbl.replace picks k (Hashtbl.find groups c)
        | _ -> ())
      code;
    (code, picks)
  in
  (* -- pass 3: collapse virtual temporaries onto a small physical
     file. Last uses are computed over the whole program, so a value
     shared across assignments (CSE) stays live until its final
     reader; past it, the register returns to the free list. -- *)
  let last_use : (int, int) Hashtbl.t = Hashtbl.create 32 in
  Array.iteri
    (fun i instr ->
      List.iter
        (fun s -> if s >= temp_base then Hashtbl.replace last_use s i)
        (srcs instr))
    vcode;
  let phys : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let free = ref [] in
  let n_temps = ref 0 in
  let alloc () =
    match !free with
    | r :: rest ->
        free := rest;
        r
    | [] ->
        let r = temp_base + !n_temps in
        incr n_temps;
        r
  in
  let rename r = if r < temp_base then r else Hashtbl.find phys r in
  let code =
    Array.mapi
      (fun i instr ->
        let renamed = relabel Fun.id rename instr in
        List.iter
          (fun v ->
            if v >= temp_base && Hashtbl.find_opt last_use v = Some i then
              free := Hashtbl.find phys v :: !free)
          (List.sort_uniq compare (srcs instr));
        let d0 = dst_of instr in
        let d =
          if d0 < temp_base then d0
          else begin
            (* defined once, so the first (and only) def allocates;
               a value never read keeps its register only for this
               instruction *)
            let p = alloc () in
            Hashtbl.replace phys d0 p;
            if not (Hashtbl.mem last_use d0) then free := p :: !free;
            p
          end
        in
        relabel (fun _ -> d) Fun.id renamed)
      vcode
  in
  let targets = Array.of_list (List.map fst roots) in
  {
    shape;
    n_slots;
    n_regs = temp_base + !n_temps;
    consts;
    targets;
    code;
    exe = blocks code picks;
    rot_dst = Array.map fst rotations;
    rot_src = Array.map snd rotations;
    div_targets =
      Array.of_list
        (List.filter_map
           (function
             | Div (d, _, _) ->
                 let id = Hashtbl.find div_node d in
                 Some (Array.of_list (List.rev (Hashtbl.find div_users id)))
             | _ -> None)
           (Array.to_list vcode));
  }

let compile ~slot ~n_slots ~rotations assigns =
  Obs.with_span ~cat:"sf" "sf.compile" @@ fun () ->
  let t0 = Obs.now_ns () in
  let t = compile_unobserved ~slot ~n_slots ~rotations assigns in
  Obs.Counter.incr c_programs;
  Obs.Counter.add c_instrs (Array.length t.code);
  Obs.Histogram.observe h_compile_seconds
    (float_of_int (Obs.now_ns () - t0) *. 1e-9);
  t

let rebind t ~slot ~n_slots ~rotations assigns =
  if n_slots <> t.n_slots then None
  else if
    rotations <> Array.map2 (fun d s -> (d, s)) t.rot_dst t.rot_src
  then None
  else if not (String.equal (shape_of ~slot ~n_slots assigns) t.shape) then
    None
  else
    let consts = collect_consts assigns in
    if Array.length consts <> Array.length t.consts then None
    else begin
      Obs.Counter.incr c_rebinds;
      Some { t with consts }
    end

(* ---- traffic ---- *)

type traffic = {
  t_reads : int;
  t_writes : int;
  t_flops : int;
  t_opcode_mix : (string * int) list;
}

(* The code is straight-line (no branches): per-step register traffic
   and the opcode mix of a step computing every arm are static
   properties of the artifact. *)
let traffic t =
  let reads = ref 0 and writes = ref 0 and flops = ref 0 in
  let mix = Hashtbl.create 12 in
  let count name n_src ~flop =
    reads := !reads + n_src;
    incr writes;
    flops := !flops + flop;
    Hashtbl.replace mix name (1 + Option.value ~default:0 (Hashtbl.find_opt mix name))
  in
  Array.iter
    (fun instr ->
      match instr with
      | Mov _ -> count "mov" 1 ~flop:0
      | Neg _ -> count "neg" 1 ~flop:1
      | Add _ -> count "add" 2 ~flop:1
      | Sub _ -> count "sub" 2 ~flop:1
      | Mul _ -> count "mul" 2 ~flop:1
      | Div _ -> count "div" 2 ~flop:1
      | App _ -> count "app" 1 ~flop:1
      | Cmp _ -> count "cmp" 2 ~flop:1
      | Andb _ -> count "and" 2 ~flop:0
      | Orb _ -> count "or" 2 ~flop:0
      | Notb _ -> count "not" 1 ~flop:0
      | Sel _ -> count "sel" 3 ~flop:0
      | Lin (_, ops) ->
          (* k products and p plain terms: 2k + p reads, k products
             and k + p - 1 additions *)
          let terms = Array.length ops / 2 in
          let products = ref 0 in
          for j = 0 to terms - 1 do
            if ops.((2 * j) + 1) >= 0 then incr products
          done;
          count "lin" (terms + !products) ~flop:(terms + !products - 1)
      | Rows _ | Pick _ | Jmp _ | Pick_rows _ -> assert false)
    t.code;
  let t_opcode_mix =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) mix []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { t_reads = !reads; t_writes = !writes; t_flops = !flops; t_opcode_mix }

(* ---- execution ---- *)

let const_pool t = Array.copy t.consts

let load_consts t regs =
  if Array.length regs < t.n_regs then
    invalid_arg
      (Printf.sprintf "Compile.load_consts: register file %d < %d"
         (Array.length regs) t.n_regs);
  Array.iteri (fun i c -> regs.(t.n_slots + i) <- c) t.consts

(* Unchecked register access, as primitives: a local [get]/[set] would
   be a closure over the register file, allocated on every [exec]. *)
external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

external iget : int array -> int -> int = "%array_unsafe_get"

(* The value of a row: each product rounded, then the partial sums
   left to right; a term with no second operand is a plain register.
   Inlined, so the float is never boxed. *)
let[@inline] row (regs : float array) ops =
  let x = get regs (Array.unsafe_get ops 0) in
  let b = Array.unsafe_get ops 1 in
  let acc =
    ref
      (if b < 0 then x
       else
         let y = get regs b in
         x *. y)
  in
  for j = 1 to (Array.length ops lsr 1) - 1 do
    let x = get regs (Array.unsafe_get ops (2 * j)) in
    let b = Array.unsafe_get ops ((2 * j) + 1) in
    let p =
      if b < 0 then x
      else
        let y = get regs b in
        x *. y
    in
    acc := !acc +. p
  done;
  !acc

(* All operand indices were validated below [n_regs] at build time and
   [load_consts] checked the array length, so the hot loop can elide
   bounds checks. The operands of a commutative add or multiply are
   bound before the operation: the code generator may otherwise fold
   one load into the instruction and swap the operands, and when both
   are NaN the left one's sign is the one [Expr.eval] keeps. The body
   is inlined into {!exec} and into {!run}'s loop, so a table-fed run
   pays no call per step. [pc] only moves forward: a lazy conditional
   skips the arm it does not take, and every jump lands inside [exe]
   or at its end. *)
let[@inline] step t (regs : float array) =
  let code = t.exe in
  let pc = ref 0 in
  while !pc < Array.length code do
    let i = !pc in
    pc := i + 1;
    match Array.unsafe_get code i with
    | Mov (d, s) -> set regs d (get regs s)
    | Neg (d, a) -> set regs d (-.get regs a)
    | Add (d, a, b) ->
        let x = get regs a and y = get regs b in
        set regs d (x +. y)
    | Sub (d, a, b) -> set regs d (get regs a -. get regs b)
    | Mul (d, a, b) ->
        let x = get regs a and y = get regs b in
        set regs d (x *. y)
    | Div (d, a, b) -> set regs d (get regs a /. get regs b)
    | App (f, d, a) -> set regs d (Expr.apply_fun f (get regs a))
    | Cmp (c, d, a, b) ->
        (* Compared here rather than through a call into [Expr]: a call
           across modules boxes both operands under [-opaque]. *)
        let x = get regs a and y = get regs b in
        let r =
          match c with
          | Expr.Lt -> x < y
          | Expr.Le -> x <= y
          | Expr.Gt -> x > y
          | Expr.Ge -> x >= y
        in
        set regs d (if r then 1.0 else 0.0)
    | Andb (d, a, b) ->
        set regs d
          (if get regs a <> 0.0 && get regs b <> 0.0 then 1.0 else 0.0)
    | Orb (d, a, b) ->
        set regs d
          (if get regs a <> 0.0 || get regs b <> 0.0 then 1.0 else 0.0)
    | Notb (d, a) -> set regs d (if get regs a <> 0.0 then 0.0 else 1.0)
    | Sel (d, c, a, b) ->
        set regs d (if get regs c <> 0.0 then get regs a else get regs b)
    | Lin (d, ops) -> set regs d (row regs ops)
    | Rows rows ->
        (* Fixed arity: three rounded products, summed left to right.
           Each row stores its target only after its last read, since a
           temporary target may reuse an operand's register. *)
        for k = 0 to (Array.length rows / 7) - 1 do
          let o = 7 * k in
          let p0 =
            let x = get regs (iget rows (o + 1)) in
            let y = get regs (iget rows (o + 2)) in
            x *. y
          in
          let p1 =
            let x = get regs (iget rows (o + 3)) in
            let y = get regs (iget rows (o + 4)) in
            x *. y
          in
          let p2 =
            let x = get regs (iget rows (o + 5)) in
            let y = get regs (iget rows (o + 6)) in
            x *. y
          in
          set regs (iget rows o) ((p0 +. p1) +. p2)
        done
    | Pick (strict, a, b, k) ->
        (* the comparison [Cmp] would make, false on NaN as a 0.0
           condition is *)
        let x = get regs a and y = get regs b in
        if strict then (if not (x < y) then pc := i + 1 + k)
        else if not (x <= y) then pc := i + 1 + k
    | Jmp k -> pc := i + 1 + k
    | Pick_rows (strict, a, b, d, yes, no) ->
        let x = get regs a and y = get regs b in
        set regs d
          (row regs (if (if strict then x < y else x <= y) then yes else no))
  done;
  (* rotations hold layout slots, validated below [n_slots] *)
  let dst = t.rot_dst and src = t.rot_src in
  for i = 0 to Array.length dst - 1 do
    set regs (iget dst i) (get regs (iget src i))
  done

let exec t regs = step t regs

let run_fail fmt = Printf.ksprintf invalid_arg ("Compile.run: " ^^ fmt)

let check_run_slot t what s =
  if s < 0 || s >= t.n_slots then
    run_fail "%s slot %d outside 0..%d" what s (t.n_slots - 1)

(* Every index the loop reads unchecked is checked here, once; loops
   rather than closures keep a run allocation-free. *)
let run t regs ~inputs ~tables ~out values n =
  if Array.length regs < t.n_regs then
    run_fail "register file %d < %d" (Array.length regs) t.n_regs;
  if Array.length tables <> Array.length inputs then
    run_fail "%d table(s) for %d input(s)" (Array.length tables)
      (Array.length inputs);
  for k = 0 to Array.length inputs - 1 do
    check_run_slot t "input" inputs.(k);
    if Array.length tables.(k) <= n then
      run_fail "table of %d sample(s) for %d steps"
        (Array.length tables.(k)) n
  done;
  check_run_slot t "output" out;
  if Array.length values <= n then
    run_fail "output buffer of %d sample(s) for %d steps"
      (Array.length values) n;
  for i = 1 to n do
    for k = 0 to Array.length inputs - 1 do
      set regs (iget inputs k) (get (Array.unsafe_get tables k) i)
    done;
    step t regs;
    set values i (get regs out)
  done

(* ---- generic (abstract) execution ---- *)

type 'a interp = {
  i_neg : 'a -> 'a;
  i_add : 'a -> 'a -> 'a;
  i_sub : 'a -> 'a -> 'a;
  i_mul : 'a -> 'a -> 'a;
  i_div : 'a -> 'a -> 'a;
  i_app : Expr.unary_fun -> 'a -> 'a;
  i_cmp : Expr.cmp -> 'a -> 'a -> 'a;
  i_and : 'a -> 'a -> 'a;
  i_or : 'a -> 'a -> 'a;
  i_not : 'a -> 'a;
  i_sel : 'a -> 'a -> 'a -> 'a;
}

let exec_with (ip : 'a interp) t (regs : 'a array) =
  if Array.length regs < t.n_regs then
    invalid_arg
      (Printf.sprintf "Compile.exec_with: register file %d < %d"
         (Array.length regs) t.n_regs);
  let code = t.code in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Mov (d, s) -> regs.(d) <- regs.(s)
    | Neg (d, a) -> regs.(d) <- ip.i_neg regs.(a)
    | Add (d, a, b) -> regs.(d) <- ip.i_add regs.(a) regs.(b)
    | Sub (d, a, b) -> regs.(d) <- ip.i_sub regs.(a) regs.(b)
    | Mul (d, a, b) -> regs.(d) <- ip.i_mul regs.(a) regs.(b)
    | Div (d, a, b) -> regs.(d) <- ip.i_div regs.(a) regs.(b)
    | App (f, d, a) -> regs.(d) <- ip.i_app f regs.(a)
    | Cmp (c, d, a, b) -> regs.(d) <- ip.i_cmp c regs.(a) regs.(b)
    | Andb (d, a, b) -> regs.(d) <- ip.i_and regs.(a) regs.(b)
    | Orb (d, a, b) -> regs.(d) <- ip.i_or regs.(a) regs.(b)
    | Notb (d, a) -> regs.(d) <- ip.i_not regs.(a)
    | Sel (d, c, a, b) -> regs.(d) <- ip.i_sel regs.(c) regs.(a) regs.(b)
    | Lin (d, ops) ->
        let term j =
          let a = regs.(ops.(2 * j)) and b = ops.((2 * j) + 1) in
          if b < 0 then a else ip.i_mul a regs.(b)
        in
        let acc = ref (term 0) in
        for j = 1 to (Array.length ops / 2) - 1 do
          acc := ip.i_add !acc (term j)
        done;
        regs.(d) <- !acc
    | Rows _ | Pick _ | Jmp _ | Pick_rows _ -> assert false
  done;
  Array.iteri (fun i d -> regs.(d) <- regs.(t.rot_src.(i))) t.rot_dst

(* ---- printing ---- *)

let c_fun = function
  | Expr.Sin -> "std::sin"
  | Expr.Cos -> "std::cos"
  | Expr.Exp -> "std::exp"
  | Expr.Ln -> "std::log"
  | Expr.Sqrt -> "std::sqrt"
  | Expr.Abs -> "std::fabs"
  | Expr.Tanh -> "std::tanh"

(* One instruction as a C++ statement over named registers. Conditions
   stay 0.0 / 1.0 doubles and a row sums left to right, so compiled
   without contraction the statement rounds exactly as [exec] does. *)
let pp_instr ~reg:r ppf instr =
  let bool d fmt = Format.fprintf ppf ("%s = " ^^ fmt ^^ " ? 1.0 : 0.0;") (r d) in
  match instr with
  | Mov (d, a) -> Format.fprintf ppf "%s = %s;" (r d) (r a)
  | Neg (d, a) -> Format.fprintf ppf "%s = -%s;" (r d) (r a)
  | Add (d, a, b) -> Format.fprintf ppf "%s = %s + %s;" (r d) (r a) (r b)
  | Sub (d, a, b) -> Format.fprintf ppf "%s = %s - %s;" (r d) (r a) (r b)
  | Mul (d, a, b) -> Format.fprintf ppf "%s = %s * %s;" (r d) (r a) (r b)
  | Div (d, a, b) -> Format.fprintf ppf "%s = %s / %s;" (r d) (r a) (r b)
  | App (f, d, a) -> Format.fprintf ppf "%s = %s(%s);" (r d) (c_fun f) (r a)
  | Cmp (c, d, a, b) -> bool d "%s %s %s" (r a) (Expr.cmp_name c) (r b)
  | Andb (d, a, b) -> bool d "%s != 0.0 && %s != 0.0" (r a) (r b)
  | Orb (d, a, b) -> bool d "%s != 0.0 || %s != 0.0" (r a) (r b)
  | Notb (d, a) -> bool d "%s == 0.0" (r a)
  | Sel (d, c, a, b) ->
      Format.fprintf ppf "%s = %s != 0.0 ? %s : %s;" (r d) (r c) (r a) (r b)
  | Lin (d, ops) ->
      let term j =
        let a = ops.(2 * j) and b = ops.((2 * j) + 1) in
        if b < 0 then r a else r a ^ " * " ^ r b
      in
      Format.fprintf ppf "%s = %s;" (r d)
        (String.concat " + " (List.init (Array.length ops / 2) term))
  | Rows _ | Pick _ | Jmp _ | Pick_rows _ -> assert false

let pp_code ~slot ~const ~temp ppf t =
  let n_consts = Array.length t.consts in
  let reg i =
    if i < t.n_slots then slot i
    else if i < t.n_slots + n_consts then
      const (i - t.n_slots) t.consts.(i - t.n_slots)
    else temp (i - t.n_slots - n_consts)
  in
  (* a rotation prints as the copy it is *)
  let rotations =
    List.init (Array.length t.rot_dst) (fun i -> Mov (t.rot_dst.(i), t.rot_src.(i)))
  in
  Format.pp_print_list (pp_instr ~reg) ppf (Array.to_list t.code @ rotations)

let pp ppf t =
  Format.fprintf ppf "@[<v 2>bytecode: %d instr, %d regs (%d slots, %d consts)@,%a@]"
    (Array.length t.code) t.n_regs t.n_slots (Array.length t.consts)
    (pp_code
       ~slot:(Printf.sprintf "s%d")
       ~const:(Printf.sprintf "c%d{%g}")
       ~temp:(Printf.sprintf "t%d"))
    t
