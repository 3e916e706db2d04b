module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component

type point = { freq_hz : float; response : Complex.t }

(* Dense complex LU with partial pivoting (same scheme as Matrix). *)
module Cmatrix = struct
  open Complex

  type t = { n : int; a : Complex.t array }

  let create n = { n; a = Array.make (n * n) zero }

  let add_to m i j v = m.a.((i * m.n) + j) <- add m.a.((i * m.n) + j) v

  let solve m b =
    let n = m.n in
    let a = Array.copy m.a in
    let x = Array.copy b in
    for k = 0 to n - 1 do
      let piv = ref k and mag = ref (norm a.((k * n) + k)) in
      for i = k + 1 to n - 1 do
        let m' = norm a.((i * n) + k) in
        if m' > !mag then begin
          mag := m';
          piv := i
        end
      done;
      if !mag < 1e-300 then invalid_arg "Ac: singular system";
      if !piv <> k then begin
        for j = 0 to n - 1 do
          let t = a.((k * n) + j) in
          a.((k * n) + j) <- a.((!piv * n) + j);
          a.((!piv * n) + j) <- t
        done;
        let t = x.(k) in
        x.(k) <- x.(!piv);
        x.(!piv) <- t
      end;
      for i = k + 1 to n - 1 do
        let f = div a.((i * n) + k) a.((k * n) + k) in
        if f <> zero then begin
          for j = k to n - 1 do
            a.((i * n) + j) <- sub a.((i * n) + j) (mul f a.((k * n) + j))
          done;
          x.(i) <- sub x.(i) (mul f x.(k))
        end
      done
    done;
    for i = n - 1 downto 0 do
      let s = ref x.(i) in
      for j = i + 1 to n - 1 do
        s := sub !s (mul a.((i * n) + j) x.(j))
      done;
      x.(i) <- div !s a.((i * n) + i)
    done;
    x
end

let analyze circuit ~input ~output ~freqs =
  if Circuit.has_pwl circuit then
    invalid_arg "Ac.analyze: no small-signal model for piecewise-linear devices";
  (match Circuit.validate circuit with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ac.analyze: " ^ msg));
  let sys = System.build circuit in
  let drive =
    match Array.find_index (String.equal input) (System.inputs sys) with
    | Some slot -> slot
    | None -> invalid_arg ("Ac.analyze: unknown input signal " ^ input)
  in
  List.iter
    (fun f -> if f <= 0.0 then invalid_arg "Ac.analyze: non-positive frequency")
    freqs;
  let out = System.locate sys output in
  let size = System.size sys in
  let solve_at freq_hz =
    let w = 2.0 *. Float.pi *. freq_hz in
    let m = Cmatrix.create size in
    let b = Array.make size Complex.zero in
    let real v = { Complex.re = v; im = 0.0 } in
    let imag v = { Complex.re = 0.0; im = v } in
    let stamp_admittance a bn y =
      if a >= 0 then Cmatrix.add_to m a a y;
      if bn >= 0 then Cmatrix.add_to m bn bn y;
      if a >= 0 && bn >= 0 then begin
        Cmatrix.add_to m a bn (Complex.neg y);
        Cmatrix.add_to m bn a (Complex.neg y)
      end
    in
    let stamp_branch a bn k =
      if a >= 0 then begin
        Cmatrix.add_to m a k Complex.one;
        Cmatrix.add_to m k a Complex.one
      end;
      if bn >= 0 then begin
        Cmatrix.add_to m bn k (real (-1.0));
        Cmatrix.add_to m k bn (real (-1.0))
      end
    in
    (* AC excitation: unit phasor on the selected input, zero
       elsewhere. *)
    let amp (d : System.device) = if d.slot = drive then 1.0 else 0.0 in
    Array.iter
      (fun (d : System.device) ->
        let a = d.pos and bn = d.neg and k = d.branch in
        match d.component.kind with
        | Component.Resistor r -> stamp_admittance a bn (real (1.0 /. r))
        | Component.Capacitor c -> stamp_admittance a bn (imag (w *. c))
        | Component.Vccs { gm; _ } ->
            let cp = d.ctrl_pos and cn = d.ctrl_neg in
            let add i j v = if i >= 0 && j >= 0 then Cmatrix.add_to m i j v in
            add a cp (real gm);
            add a cn (real (-.gm));
            add bn cp (real (-.gm));
            add bn cn (real gm)
        | Component.Isource _ ->
            if a >= 0 then b.(a) <- Complex.sub b.(a) (real (amp d));
            if bn >= 0 then b.(bn) <- Complex.add b.(bn) (real (amp d))
        | Component.Vsource _ ->
            stamp_branch a bn k;
            b.(k) <- real (amp d)
        | Component.Vcvs { gain; _ } ->
            stamp_branch a bn k;
            if d.ctrl_pos >= 0 then Cmatrix.add_to m k d.ctrl_pos (real (-.gain));
            if d.ctrl_neg >= 0 then Cmatrix.add_to m k d.ctrl_neg (real gain)
        | Component.Inductor l ->
            stamp_branch a bn k;
            Cmatrix.add_to m k k (imag (-.(w *. l)))
        | Component.Pwl_conductance _ -> assert false)
      (System.devices sys);
    let x = Cmatrix.solve m b in
    let node_phasor i = if i < 0 then Complex.zero else x.(i) in
    let response =
      match out with
      | System.Potential (p, q) -> Complex.sub (node_phasor p) (node_phasor q)
      | System.Branch k -> x.(k)
      | System.Resistor_flow (p, q, r) ->
          Complex.div
            (Complex.sub (node_phasor p) (node_phasor q))
            { Complex.re = r; im = 0.0 }
    in
    { freq_hz; response }
  in
  List.map solve_at freqs

let magnitude_db p = 20.0 *. log10 (Complex.norm p.response)
let phase_deg p = Complex.arg p.response *. 180.0 /. Float.pi
