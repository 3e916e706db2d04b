type t = { n : int; a : float array }

let create n =
  if n < 0 then invalid_arg "Matrix.create: negative dimension";
  { n; a = Array.make (n * n) 0.0 }

let check m i j =
  if i < 0 || i >= m.n || j < 0 || j >= m.n then
    invalid_arg "Matrix: index out of bounds"

let set m i j v =
  check m i j;
  m.a.((i * m.n) + j) <- v

let add_to m i j v =
  check m i j;
  m.a.((i * m.n) + j) <- m.a.((i * m.n) + j) +. v

type lu = { ln : int; lu : float array; perm : int array }

exception Singular of int

let lu_factor m =
  let n = m.n in
  let a = Array.copy m.a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k. *)
    let pivot_row = ref k in
    let pivot_mag = ref (abs_float a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let mag = abs_float a.((i * n) + k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag < 1e-300 then raise (Singular k);
    if !pivot_row <> k then begin
      let r = !pivot_row in
      for j = 0 to n - 1 do
        let tmp = a.((k * n) + j) in
        a.((k * n) + j) <- a.((r * n) + j);
        a.((r * n) + j) <- tmp
      done;
      let tp = perm.(k) in
      perm.(k) <- perm.(r);
      perm.(r) <- tp
    end;
    let pivot = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let factor = a.((i * n) + k) /. pivot in
      a.((i * n) + k) <- factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (factor *. a.((k * n) + j))
        done
    done
  done;
  { ln = n; lu = a; perm }

(* Smallest and largest pivot magnitude of a completed factorisation —
   the U diagonal under partial pivoting. Their ratio is the cheap
   conditioning proxy the solver telemetry reports: a ratio near
   1/epsilon means the solve is running out of significant digits. *)
let pivot_range f =
  let n = f.ln in
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to n - 1 do
    let p = abs_float f.lu.((i * n) + i) in
    if p < !mn then mn := p;
    if p > !mx then mx := p
  done;
  (!mn, !mx)

let lu_solve_into f ~b ~x =
  let n = f.ln in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Matrix.lu_solve_into: dimension mismatch";
  (* Forward substitution on the permuted RHS. *)
  for i = 0 to n - 1 do
    let s = ref b.(f.perm.(i)) in
    for j = 0 to i - 1 do
      s := !s -. (f.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* Backward substitution. *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (f.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. f.lu.((i * n) + i)
  done

let lu_solve f b =
  let x = Array.make f.ln 0.0 in
  lu_solve_into f ~b ~x;
  x

let solve m b = lu_solve (lu_factor m) b

let mat_vec m v =
  if Array.length v <> m.n then invalid_arg "Matrix.mat_vec: dimension mismatch";
  Array.init m.n (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.n - 1 do
        s := !s +. (m.a.((i * m.n) + j) *. v.(j))
      done;
      !s)
