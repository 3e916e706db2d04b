module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile

(* ---- the interval-with-flags domain ---- *)

type itv = {
  lo : float;  (** finite lower bound; [lo > hi] encodes "no finite value" *)
  hi : float;
  nan : bool;
  pinf : bool;
  ninf : bool;
}

let bot = { lo = infinity; hi = neg_infinity; nan = false; pinf = false; ninf = false }
let top = { lo = -.max_float; hi = max_float; nan = true; pinf = true; ninf = true }

let no_finite i = i.lo > i.hi
let has_finite i = i.lo <= i.hi
let has_flag i = i.nan || i.pinf || i.ninf
let is_bot i = no_finite i && not (has_flag i)

let fin lo hi = { lo; hi; nan = false; pinf = false; ninf = false }

let const c =
  if Float.is_nan c then { bot with nan = true }
  else if c = infinity then { bot with pinf = true }
  else if c = neg_infinity then { bot with ninf = true }
  else fin c c

let interval lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Absint.interval: need lo <= hi, non-NaN";
  let ninf = lo = neg_infinity and pinf = hi = infinity in
  let lo = if lo = neg_infinity then -.max_float else lo in
  let hi = if hi = infinity then max_float else hi in
  { lo; hi; nan = false; pinf; ninf }

let join a b =
  {
    lo = min a.lo b.lo;
    hi = max a.hi b.hi;
    nan = a.nan || b.nan;
    pinf = a.pinf || b.pinf;
    ninf = a.ninf || b.ninf;
  }

let leq a b =
  (no_finite a || (has_finite b && a.lo >= b.lo && a.hi <= b.hi))
  && ((not a.nan) || b.nan)
  && ((not a.pinf) || b.pinf)
  && ((not a.ninf) || b.ninf)

let mem v i =
  if Float.is_nan v then i.nan
  else if v = infinity then i.pinf
  else if v = neg_infinity then i.ninf
  else has_finite i && i.lo <= v && v <= i.hi

let singleton i =
  if has_flag i || no_finite i || i.lo <> i.hi then None else Some i.lo

let may_non_finite i = has_flag i
let may_zero i = has_finite i && i.lo <= 0.0 && 0.0 <= i.hi

let definitely_non_finite i = no_finite i && has_flag i

let definitely_unhealthy ?amplitude i =
  if is_bot i then None
  else
    let fin_bad =
      no_finite i
      ||
      match amplitude with
      | Some l -> i.lo > l || i.hi < -.l
      | None -> false
    in
    if not fin_bad then None
    else if no_finite i then Some `Nonfinite
    else Some `Amplitude

let to_string i =
  if is_bot i then "⊥"
  else
    let flags =
      (if i.nan then ["NaN"] else [])
      @ (if i.pinf then ["+inf"] else [])
      @ if i.ninf then ["-inf"] else []
    in
    let fin_s =
      if no_finite i then []
      else if i.lo = i.hi then [ Printf.sprintf "{%.17g}" i.lo ]
      else [ Printf.sprintf "[%.17g, %.17g]" i.lo i.hi ]
    in
    String.concat " ∪ " (fin_s @ flags)

(* ---- outward rounding ----

   Endpoint candidates are computed with ordinary round-to-nearest
   float operations and then nudged one representable value outward per
   rounding step involved, so the abstract bound always brackets the
   exact real result the hardware approximated. Nudging past the finite
   range clamps to ±max_float: finite IEEE values cannot exceed it, and
   overflow to an infinity is tracked by the flags instead. *)

let next_up x =
  if x <> x || x = infinity then x
  else if x = 0.0 then Int64.float_of_bits 1L
  else if x > 0.0 then Int64.float_of_bits (Int64.add (Int64.bits_of_float x) 1L)
  else Int64.float_of_bits (Int64.sub (Int64.bits_of_float x) 1L)

let next_down x = -.next_up (-.x)

let nudge_up n x =
  let r = ref x in
  for _ = 1 to n do
    r := next_up !r
  done;
  if !r = infinity then max_float else !r

let nudge_down n x =
  let r = ref x in
  for _ = 1 to n do
    r := next_down !r
  done;
  if !r = neg_infinity then -.max_float else !r

(* Build a finite range (plus overflow flags) from endpoint candidates.
   A candidate that overflowed to ±inf contributes the flag and extends
   the finite bound to ±max_float (values just short of overflow are
   reachable). [slack] ulps absorb round-to-nearest error. *)
let of_cands ~slack cands =
  let nan = ref false and pinf = ref false and ninf = ref false in
  let lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (fun c ->
      if Float.is_nan c then nan := true
      else
        let c =
          if c = infinity then begin
            pinf := true;
            max_float
          end
          else if c = neg_infinity then begin
            ninf := true;
            -.max_float
          end
          else c
        in
        if c < !lo then lo := c;
        if c > !hi then hi := c)
    cands;
  if !lo > !hi then { bot with nan = !nan; pinf = !pinf; ninf = !ninf }
  else
    {
      lo = nudge_down slack !lo;
      hi = nudge_up slack !hi;
      nan = !nan;
      pinf = !pinf;
      ninf = !ninf;
    }

(* ---- transfer functions ---- *)

let neg a =
  {
    lo = -.a.hi;
    hi = -.a.lo;
    nan = a.nan;
    pinf = a.ninf;
    ninf = a.pinf;
  }

(* Both operands proven to a single finite value: apply exactly the
   IEEE operation the engines perform, keeping folded constants
   bit-compatible with [Compile]'s own folding. Not used for division
   (the sign of a zero denominator flips the infinity). *)
let exact2 f a b =
  if
    has_finite a && has_finite b && a.lo = a.hi && b.lo = b.hi
    && (not (has_flag a))
    && not (has_flag b)
  then Some (const (f a.lo b.lo))
  else None

let add a b =
  if is_bot a || is_bot b then bot
  else
    match exact2 ( +. ) a b with
    | Some r -> r
    | None ->
        let fa = has_finite a and fb = has_finite b in
        let nan = a.nan || b.nan || (a.pinf && b.ninf) || (a.ninf && b.pinf) in
        let pinf = (a.pinf && (fb || b.pinf)) || (b.pinf && (fa || a.pinf)) in
        let ninf = (a.ninf && (fb || b.ninf)) || (b.ninf && (fa || a.ninf)) in
        let finp =
          if fa && fb then of_cands ~slack:1 [ a.lo +. b.lo; a.hi +. b.hi ]
          else bot
        in
        join finp { bot with nan; pinf; ninf }

let sub a b =
  if is_bot a || is_bot b then bot
  else
    match exact2 ( -. ) a b with
    | Some r -> r
    | None ->
        let fa = has_finite a and fb = has_finite b in
        let nan = a.nan || b.nan || (a.pinf && b.pinf) || (a.ninf && b.ninf) in
        let pinf = (a.pinf && (fb || b.ninf)) || (b.ninf && (fa || a.pinf)) in
        let ninf = (a.ninf && (fb || b.pinf)) || (b.pinf && (fa || a.ninf)) in
        let finp =
          if fa && fb then of_cands ~slack:1 [ a.lo -. b.hi; a.hi -. b.lo ]
          else bot
        in
        join finp { bot with nan; pinf; ninf }

let has_pos i = (has_finite i && i.hi > 0.0) || i.pinf
let has_neg i = (has_finite i && i.lo < 0.0) || i.ninf

let mul a b =
  if is_bot a || is_bot b then bot
  else
    match exact2 ( *. ) a b with
    | Some r -> r
    | None ->
        let a_inf = a.pinf || a.ninf and b_inf = b.pinf || b.ninf in
        let nan =
          a.nan || b.nan || (a_inf && may_zero b) || (b_inf && may_zero a)
        in
        let pinf =
          (a.pinf && has_pos b) || (b.pinf && has_pos a)
          || (a.ninf && has_neg b)
          || (b.ninf && has_neg a)
        in
        let ninf =
          (a.pinf && has_neg b) || (b.pinf && has_neg a)
          || (a.ninf && has_pos b)
          || (b.ninf && has_pos a)
        in
        let finp =
          if has_finite a && has_finite b then
            of_cands ~slack:1
              [ a.lo *. b.lo; a.lo *. b.hi; a.hi *. b.lo; a.hi *. b.hi ]
          else bot
        in
        join finp { bot with nan; pinf; ninf }

let div a b =
  if is_bot a || is_bot b then bot
  else
    let fa = has_finite a and fb = has_finite b in
    let a_inf = a.pinf || a.ninf and b_inf = b.pinf || b.ninf in
    let a_nonzero = (fa && (a.hi > 0.0 || a.lo < 0.0)) || a_inf in
    let nan =
      a.nan || b.nan || (a_inf && b_inf) || (may_zero a && may_zero b)
    in
    (* infinite numerator over ordered denominator; an abstract zero
       divisor carries both signs, so both infinities appear *)
    let p_num =
      (a.pinf && (has_pos b || may_zero b))
      || (a.ninf && (has_neg b || may_zero b))
    in
    let n_num =
      (a.pinf && (has_neg b || may_zero b))
      || (a.ninf && (has_pos b || may_zero b))
    in
    (* finite numerator over a denominator that can be (close to) zero *)
    let div0 = fb && may_zero b && a_nonzero in
    let pinf = p_num || div0 in
    let ninf = n_num || div0 in
    let finp =
      if not (fa && fb) then bot
      else if may_zero b then
        if b.lo = 0.0 && b.hi = 0.0 then bot
          (* nothing finite out of a provably-zero denominator *)
        else if a.lo = 0.0 && a.hi = 0.0 then const 0.0
        else fin (-.max_float) max_float
      else
        of_cands ~slack:1
          [ a.lo /. b.lo; a.lo /. b.hi; a.hi /. b.lo; a.hi /. b.hi ]
    in
    (* finite numerator over an infinite denominator underflows to zero *)
    let finp = if fa && b_inf then join finp (const 0.0) else finp in
    join finp { bot with nan; pinf; ninf }

let tiny = Int64.float_of_bits 1L

let clamp lo hi i =
  if no_finite i then i
  else { i with lo = max lo i.lo; hi = min hi i.hi }

let app f a =
  if is_bot a then bot
  else
    match
      if has_finite a && a.lo = a.hi && not (has_flag a) then
        Some (const (Expr.apply_fun f a.lo))
      else None
    with
    | Some r -> r
    | None -> (
        let fa = has_finite a in
        match f with
        | Expr.Sin | Expr.Cos ->
            (* |sin|,|cos| <= 1 for every finite argument *)
            let nan = a.nan || a.pinf || a.ninf in
            let finp = if fa then fin (-1.0) 1.0 else bot in
            join finp { bot with nan }
        | Expr.Exp ->
            let pinf = a.pinf in
            let zero = if a.ninf then const 0.0 else bot in
            let finp =
              if fa then
                clamp 0.0 max_float
                  (of_cands ~slack:2 [ exp a.lo; exp a.hi ])
              else bot
            in
            join (join finp zero) { bot with nan = a.nan; pinf }
        | Expr.Ln ->
            let nan = a.nan || (fa && a.lo < 0.0) || a.ninf in
            let ninf = fa && a.lo <= 0.0 && 0.0 <= a.hi in
            let pinf = a.pinf in
            let finp =
              if fa && a.hi > 0.0 then
                let lo_arg = if a.lo > 0.0 then a.lo else tiny in
                of_cands ~slack:2 [ log lo_arg; log a.hi ]
              else bot
            in
            join finp { bot with nan; pinf; ninf }
        | Expr.Sqrt ->
            let nan = a.nan || (fa && a.lo < 0.0) || a.ninf in
            let pinf = a.pinf in
            let finp =
              if fa && a.hi >= 0.0 then
                (* sqrt is correctly rounded: endpoints are exact *)
                fin (sqrt (max a.lo 0.0)) (sqrt a.hi)
              else bot
            in
            join finp { bot with nan; pinf }
        | Expr.Abs ->
            let nan = a.nan in
            let pinf = a.pinf || a.ninf in
            let finp =
              if not fa then bot
              else if a.lo >= 0.0 then fin a.lo a.hi
              else if a.hi <= 0.0 then fin (-.a.hi) (-.a.lo)
              else fin 0.0 (max (-.a.lo) a.hi)
            in
            join finp { bot with nan; pinf }
        | Expr.Tanh ->
            let nan = a.nan in
            let edges =
              join
                (if a.pinf then const 1.0 else bot)
                (if a.ninf then const (-1.0) else bot)
            in
            let finp =
              if fa then
                clamp (-1.0) 1.0 (of_cands ~slack:2 [ tanh a.lo; tanh a.hi ])
              else bot
            in
            join (join finp edges) { bot with nan })

(* ---- conditions ----

   As in the bytecode, a condition is a value: 1.0 where it may hold,
   0.0 where it may fail. *)

let cmp_abs c a b =
  if is_bot a || is_bot b then bot
  else
    let ord x = has_finite x || x.pinf || x.ninf in
    let xmin x =
      if x.ninf then neg_infinity
      else if has_finite x then x.lo
      else infinity
    in
    let xmax x =
      if x.pinf then infinity
      else if has_finite x then x.hi
      else neg_infinity
    in
    let o = ord a && ord b in
    let t, f =
      match c with
      | Expr.Lt -> ((o && xmin a < xmax b), o && xmax a >= xmin b)
      | Expr.Le -> ((o && xmin a <= xmax b), o && xmax a > xmin b)
      | Expr.Gt -> ((o && xmax a > xmin b), o && xmin a <= xmax b)
      | Expr.Ge -> ((o && xmax a >= xmin b), o && xmin a < xmax b)
    in
    join
      (if t then const 1.0 else bot)
      (if f || a.nan || b.nan then const 0.0 else bot)

(* ---- widening ---- *)

let thresholds =
  [| -.max_float; -1e100; -1e9; -1e3; -1.0; 0.0; 1.0; 1e3; 1e9; 1e100; max_float |]

let widen old nw =
  let j = join old nw in
  if leq j old then old
  else
    let lo =
      if j.lo >= old.lo then old.lo
      else begin
        let r = ref (-.max_float) in
        Array.iter (fun t -> if t <= j.lo && t > !r then r := t) thresholds;
        !r
      end
    in
    let hi =
      if j.hi <= old.hi then old.hi
      else begin
        let r = ref max_float in
        Array.iter (fun t -> if t >= j.hi && t < !r then r := t) thresholds;
        !r
      end
    in
    { lo; hi; nan = j.nan; pinf = j.pinf; ninf = j.ninf }

(* ---- interval interpretation of the bytecode ----

   Both analyses run a compiled artifact through [Compile.exec_with]:
   the very instructions and history rotations the runners execute.
   Conditionals compute both arms, as the bytecode's eager [Sel]
   does. *)

let truthy i = has_flag i || (has_finite i && (i.hi > 0.0 || i.lo < 0.0))
let falsy i = may_zero i

let interp : itv Compile.interp =
  {
    Compile.i_neg = neg;
    i_add = add;
    i_sub = sub;
    i_mul = mul;
    i_div = div;
    i_app = app;
    i_cmp = cmp_abs;
    i_and =
      (fun a b ->
        if is_bot a || is_bot b then bot
        else
          join
            (if truthy a && truthy b then const 1.0 else bot)
            (if falsy a || falsy b then const 0.0 else bot));
    i_or =
      (fun a b ->
        if is_bot a || is_bot b then bot
        else
          join
            (if truthy a || truthy b then const 1.0 else bot)
            (if falsy a && falsy b then const 0.0 else bot));
    i_not =
      (fun a ->
        if is_bot a then bot
        else
          join
            (if falsy a then const 1.0 else bot)
            (if truthy a then const 0.0 else bot));
    i_sel =
      (fun c a b ->
        if is_bot c then bot
        else
          join (if truthy c then a else bot) (if falsy c then b else bot));
  }

(* An interval register file for [artifact]: every slot 0, the
   constant pool [pool] above the slots, temporaries unset. *)
let registers artifact pool =
  if Array.length pool <> Compile.n_consts artifact then
    invalid_arg "Absint: pool size mismatch";
  let regs = Array.make (max 1 (Compile.n_regs artifact)) (const 0.0) in
  Array.blit pool 0 regs (Compile.n_slots artifact) (Array.length pool);
  regs

(* ---- whole-program analysis ---- *)

type analysis = {
  a_program : Sfprogram.t;
  a_inputs : (string * itv) list;  (** the box the analysis assumed *)
  a_targets : (Expr.var * itv) list;
      (** per-assignment value range, joined over every step *)
  a_outputs : (Expr.var * itv) list;
      (** per-output trace range (includes the initial 0 sample) *)
  a_div_sure : Expr.var list;
      (** assignments containing a division whose divisor is provably
          zero at every step *)
  a_div_may : Expr.var list;
  a_dead : Expr.var list;
  a_steps : int;  (** exact abstract steps before stabilisation *)
  a_widened : bool;
}

let default_input_box = fin (-1.0) 1.0

let analyze ?(inputs = []) p =
  let max_steps = 64 in
  (* every target read: the artifact steps the whole program *)
  let pl =
    Sfprogram.plan
      ~reads:(List.map (fun a -> a.Sfprogram.target) p.Sfprogram.assignments)
      p
  in
  let artifact = Sfprogram.compile_plan pl in
  let lay = pl.Sfprogram.layout in
  let slot = Sfprogram.layout_slot lay in
  let n = Sfprogram.layout_count lay in
  let input_slots = Sfprogram.layout_input_slots lay in
  let input_box =
    List.map
      (fun name ->
        match List.assoc_opt name inputs with
        | Some i -> (name, i)
        | None -> (name, default_input_box))
      p.Sfprogram.inputs
  in
  let in_itv = Array.of_list (List.map snd input_box) in
  (* the state is the register file's slots; constants stay loaded and
     temporaries are dead between steps *)
  let regs =
    registers artifact (Array.map const (Compile.const_pool artifact))
  in
  let step ip =
    Array.iteri (fun i s -> regs.(s) <- in_itv.(i)) input_slots;
    Compile.exec_with ip artifact regs
  in
  let acc = Array.sub regs 0 n in
  let joined_into_acc () =
    let changed = ref false in
    for i = 0 to n - 1 do
      if not (leq regs.(i) acc.(i)) then begin
        changed := true;
        acc.(i) <- join acc.(i) regs.(i)
      end
    done;
    !changed
  in
  (* exact warm-up: follow the real step sequence while it still
     discovers new states *)
  let steps = ref 0 in
  (try
     for k = 1 to max_steps do
       step interp;
       steps := k;
       if not (joined_into_acc ()) then raise Exit
     done
   with Exit -> ());
  (* stabilise: iterate the transfer function on the accumulated state,
     widening until it is inductive (monotone transfer functions make
     an inductive [acc] cover every reachable state) *)
  let widened = ref false in
  let stable = ref false in
  let rounds = ref 0 in
  while (not !stable) && !rounds < 40 do
    incr rounds;
    Array.blit acc 0 regs 0 n;
    step interp;
    let covered = ref true in
    for i = 0 to n - 1 do
      if not (leq regs.(i) acc.(i)) then covered := false
    done;
    if !covered then stable := true
    else begin
      widened := true;
      for i = 0 to n - 1 do
        acc.(i) <- widen acc.(i) regs.(i)
      done
    end
  done;
  if not !stable then begin
    widened := true;
    Array.fill acc 0 n top
  end;
  (* report pass at the fixpoint: per-assignment ranges from the target
     slots and divisors from the division instructions, each sound for
     every step of any concrete run *)
  let divisors = ref [] in
  Array.blit acc 0 regs 0 n;
  step
    {
      interp with
      Compile.i_div =
        (fun a b ->
          divisors := b :: !divisors;
          div a b);
    };
  let div_sure : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let div_may : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  List.iter2
    (fun d targets ->
      let site =
        if has_finite d && d.lo = 0.0 && d.hi = 0.0 && not (has_flag d) then
          Some div_sure
        else if may_zero d then Some div_may
        else None
      in
      Option.iter (fun tbl -> Array.iter (fun s -> Hashtbl.replace tbl s ()) targets) site)
    (List.rev !divisors)
    (Array.to_list (Compile.div_targets artifact));
  let a_targets =
    List.map
      (fun (a : Sfprogram.assignment) ->
        (a.Sfprogram.target, regs.(slot a.Sfprogram.target)))
      p.Sfprogram.assignments
  in
  let a_outputs =
    List.map
      (fun o ->
        match List.assoc_opt o a_targets with
        | Some v -> (o, join (const 0.0) v)
        | None -> (o, join (const 0.0) acc.(slot o)))
      p.Sfprogram.outputs
  in
  let of_slots tbl =
    List.filter_map
      (fun (a : Sfprogram.assignment) ->
        if Hashtbl.mem tbl (slot a.Sfprogram.target) then Some a.Sfprogram.target
        else None)
      p.Sfprogram.assignments
  in
  {
    a_program = p;
    a_inputs = input_box;
    a_targets;
    a_outputs;
    a_div_sure = of_slots div_sure;
    a_div_may = of_slots div_may;
    a_dead = Sfprogram.dead_targets p;
    a_steps = !steps;
    a_widened = !widened;
  }

(* ---- step-accurate proofs of unhealthiness ---- *)

type bad = {
  b_kind : [ `Nonfinite | `Amplitude ];
  b_step : int;
  b_time : float;
}

let check_bad ?amplitude ~dt ~step out =
  match definitely_unhealthy ?amplitude out with
  | Some k ->
      Some { b_kind = k; b_step = step; b_time = float_of_int step *. dt }
  | None -> None

let prove_unhealthy_compiled ?(max_steps = 256) ?amplitude ?pool ~inputs p
    artifact =
  let lay = Sfprogram.layout_of p in
  let out_slot = (Sfprogram.layout_output_slots lay).(0) in
  let input_slots = Sfprogram.layout_input_slots lay in
  if Compile.n_slots artifact <> Sfprogram.layout_count lay then
    invalid_arg "Absint.prove_unhealthy_compiled: artifact/program mismatch";
  let regs =
    registers artifact
      (match pool with
      | Some p -> p
      | None -> Array.map const (Compile.const_pool artifact))
  in
  let dt = p.Sfprogram.dt in
  let found = ref None in
  (try
     for k = 1 to max_steps do
       let inp = inputs k in
       Array.iteri (fun i s -> regs.(s) <- inp.(i)) input_slots;
       Compile.exec_with interp artifact regs;
       match check_bad ?amplitude ~dt ~step:k regs.(out_slot) with
       | Some b ->
           found := Some b;
           raise Exit
       | None -> ()
     done
   with Exit -> ());
  !found
