type triplet = int * int * float

(* L and U in compressed sparse rows: row [i]'s entries are
   [ptr.(i) .. ptr.(i+1) - 1] of [col]/[value], by ascending column.
   Flat arrays, so a solve walks three arrays instead of boxed
   pairs. *)
type csr = { ptr : int array; col : int array; value : float array }

type lu = {
  n : int;
  perm : int array;  (* permuted row i came from original row perm.(i) *)
  l : csr;  (* strictly lower *)
  u : csr;  (* strictly upper *)
  diag : float array;
  nnz : int;
}

let csr_nnz m = m.ptr.(Array.length m.ptr - 1)

let make_lu ~perm l u diag =
  let n = Array.length diag in
  { n; perm; l; u; diag; nnz = n + csr_nnz l + csr_nnz u }

(* The CSR form of per-row [(column, value)] arrays sorted by column. *)
let csr_of_rows rows =
  let n = Array.length rows in
  let ptr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> ptr.(i + 1) <- ptr.(i) + Array.length r) rows;
  let col = Array.make ptr.(n) 0 and value = Array.make ptr.(n) 0.0 in
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun e (j, v) ->
          col.(ptr.(i) + e) <- j;
          value.(ptr.(i) + e) <- v)
        r)
    rows;
  { ptr; col; value }

exception Singular of int

(* Threshold partial pivoting: a candidate must be within this factor
   of the column maximum before sparsity breaks the tie. 0.1 is the
   usual default; a looser bound (1e-3) let diagonally dominant MNA
   matrices pivot on entries 30x smaller than the diagonal, and the
   residual grew to ~1e-10. *)
let pivot_threshold = 0.1

(* The dense factor's nonzero entries, row by row in column order: the
   substitution below then does the dense loops' operations minus the
   terms whose factor entry is exactly zero. *)
let of_dense (f : Matrix.lu) =
  let n = f.ln in
  let rows keep =
    Array.init n (fun i ->
        let row = ref [] in
        for j = n - 1 downto 0 do
          let v = f.lu.((i * n) + j) in
          if keep i j && v <> 0.0 then row := (j, v) :: !row
        done;
        Array.of_list !row)
  in
  let l = csr_of_rows (rows (fun i j -> j < i))
  and u = csr_of_rows (rows (fun i j -> j > i)) in
  make_lu ~perm:(Array.copy f.perm) l u
    (Array.init n (fun i -> f.lu.((i * n) + i)))

(* Every index a factor holds was produced by this module (columns in
   [0, n), row pointers within the value arrays, [perm] a permutation)
   and [b] and [x] are checked to have length [n], so the loops read
   and write unchecked: about a quarter of a 22-unknown solve was
   bounds checks. *)
let lu_solve_into f ~b ~x =
  let n = f.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Sparse.lu_solve_into: dimension mismatch";
  let lp = f.l.ptr and lc = f.l.col and lv = f.l.value in
  let up = f.u.ptr and uc = f.u.col and uv = f.u.value in
  (* Forward substitution on the permuted RHS (x doubles as y). *)
  for i = 0 to n - 1 do
    let s = ref (Array.unsafe_get b (Array.unsafe_get f.perm i)) in
    for e = Array.unsafe_get lp i to Array.unsafe_get lp (i + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get lv e *. Array.unsafe_get x (Array.unsafe_get lc e))
    done;
    Array.unsafe_set x i !s
  done;
  (* Backward substitution. *)
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get x i) in
    for e = Array.unsafe_get up i to Array.unsafe_get up (i + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get uv e *. Array.unsafe_get x (Array.unsafe_get uc e))
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get f.diag i)
  done

let lu_solve f b =
  let x = Array.make f.n 0.0 in
  lu_solve_into f ~b ~x;
  x

let nnz f = f.nnz

let pivot_range f =
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to f.n - 1 do
    let d = abs_float f.diag.(i) in
    if d < !mn then mn := d;
    if d > !mx then mx := d
  done;
  (!mn, !mx)

(* Symbolic factorisation: the pivot order and the fill pattern of L and
   U depend only on the sparsity structure once the pivot sequence is
   fixed, so both can be computed once per topology and reused by a
   cheap numeric refactor at every subsequent (h, region) change. The
   analysis is a Markowitz elimination on hash-sparse rows that retains
   structural zeros: zero-valued inserts stay in the row and entries
   that cancel numerically are kept, making the recorded pattern a
   superset of the fill of any matrix with this structure. *)

type symbolic = {
  sn : int;
  sperm : int array;          (* permuted row i came from original sperm.(i) *)
  spos : int array;           (* inverse of sperm *)
  slpat : int array array;    (* strictly-lower pattern, ascending columns *)
  supat : int array array;    (* strictly-upper pattern, ascending columns *)
}

let analyze ~n triplets =
  let rows = Array.init n (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (i, j, v) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Sparse.analyze: index out of range";
      let cur = try Hashtbl.find rows.(i) j with Not_found -> 0.0 in
      Hashtbl.replace rows.(i) j (cur +. v))
    triplets;
  let perm = Array.init n (fun i -> i) in
  let lcols = Array.make n [] in
  for k = 0 to n - 1 do
    (* Candidate pivots: rows k..n-1 with an entry in column k. The
       numerically admissible one with the sparsest row wins
       (Markowitz-style fill control with threshold pivoting). *)
    let colmax = ref 0.0 in
    for i = k to n - 1 do
      match Hashtbl.find_opt rows.(i) k with
      | Some v -> if abs_float v > !colmax then colmax := abs_float v
      | None -> ()
    done;
    if !colmax < 1e-300 then raise (Singular k);
    let best = ref (-1) and best_nnz = ref max_int in
    for i = k to n - 1 do
      match Hashtbl.find_opt rows.(i) k with
      | Some v
        when abs_float v >= pivot_threshold *. !colmax
             && Hashtbl.length rows.(i) < !best_nnz ->
          best := i;
          best_nnz := Hashtbl.length rows.(i)
      | Some _ | None -> ()
    done;
    let r = !best in
    if r <> k then begin
      let t = rows.(k) in
      rows.(k) <- rows.(r);
      rows.(r) <- t;
      let t = perm.(k) in
      perm.(k) <- perm.(r);
      perm.(r) <- t;
      let t = lcols.(k) in
      lcols.(k) <- lcols.(r);
      lcols.(r) <- t
    end;
    let pivot_row = rows.(k) in
    let pivot = Hashtbl.find pivot_row k in
    for i = k + 1 to n - 1 do
      match Hashtbl.find_opt rows.(i) k with
      | None -> ()
      | Some a_ik ->
          let f = a_ik /. pivot in
          Hashtbl.remove rows.(i) k;
          lcols.(i) <- k :: lcols.(i);
          Hashtbl.iter
            (fun j v ->
              if j > k then begin
                let cur = try Hashtbl.find rows.(i) j with Not_found -> 0.0 in
                (* Keep cancelled entries: the pattern must stay valid
                   for other values on the same structure. *)
                Hashtbl.replace rows.(i) j (cur -. (f *. v))
              end)
            pivot_row
    done
  done;
  let sort_cols l =
    let arr = Array.of_list l in
    Array.sort compare arr;
    arr
  in
  let slpat = Array.map sort_cols lcols in
  let supat =
    Array.init n (fun i ->
        let items =
          Hashtbl.fold (fun j _ acc -> if j > i then j :: acc else acc)
            rows.(i) []
        in
        if not (Hashtbl.mem rows.(i) i) then raise (Singular i);
        sort_cols items)
  in
  let spos = Array.make n 0 in
  Array.iteri (fun i p -> spos.(p) <- i) perm;
  { sn = n; sperm = perm; spos; slpat; supat }

let refactor sym triplets =
  let n = sym.sn in
  (* Bucket the entries into permuted rows. *)
  let buckets = Array.make n [] in
  List.iter
    (fun (i, j, v) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Sparse.refactor: index out of range";
      let pi = sym.spos.(i) in
      buckets.(pi) <- (j, v) :: buckets.(pi))
    triplets;
  let diag = Array.make n 0.0 in
  (* The patterns with zero values, filled in below. *)
  let zeros pat = csr_of_rows (Array.map (Array.map (fun j -> (j, 0.0))) pat) in
  let l = zeros sym.slpat and u = zeros sym.supat in
  (* Up-looking row elimination over the fixed pattern: scatter the row
     into a dense workspace, eliminate against already-finished U rows
     in ascending pivot order, gather L/U values back out. Every column
     touched lies inside the recorded pattern because the structure is
     unchanged, so clearing the workspace by pattern is exact. *)
  let w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    List.iter (fun (j, v) -> w.(j) <- w.(j) +. v) buckets.(i);
    for e = l.ptr.(i) to l.ptr.(i + 1) - 1 do
      let j = l.col.(e) in
      let f = w.(j) /. diag.(j) in
      l.value.(e) <- f;
      for q = u.ptr.(j) to u.ptr.(j + 1) - 1 do
        let k = u.col.(q) in
        w.(k) <- w.(k) -. (f *. u.value.(q))
      done
    done;
    let d = w.(i) in
    if abs_float d < 1e-300 then raise (Singular i);
    diag.(i) <- d;
    for e = u.ptr.(i) to u.ptr.(i + 1) - 1 do
      u.value.(e) <- w.(u.col.(e))
    done;
    (* Clear the workspace along the row pattern. *)
    for e = l.ptr.(i) to l.ptr.(i + 1) - 1 do
      w.(l.col.(e)) <- 0.0
    done;
    w.(i) <- 0.0;
    for e = u.ptr.(i) to u.ptr.(i + 1) - 1 do
      w.(u.col.(e)) <- 0.0
    done
  done;
  make_lu ~perm:(Array.copy sym.sperm) l u diag
