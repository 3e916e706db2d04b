let identifier i =
  (* Printable VCD short identifiers, starting at '!' (ASCII 33). *)
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let to_string ?(timescale_ps = 1000) signals =
  if signals = [] then invalid_arg "Vcd.to_string: no signals";
  let names = List.map fst signals in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Vcd.to_string: duplicate signal names";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date amsvp $end\n";
  Buffer.add_string buf "$version amsvp trace export $end\n";
  Buffer.add_string buf
    (Printf.sprintf "$timescale %d ps $end\n$scope module amsvp $end\n"
       timescale_ps);
  List.iteri
    (fun i (name, _) ->
      Buffer.add_string buf
        (Printf.sprintf "$var real 64 %s %s $end\n" (identifier i) name))
    signals;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  (* Merge all samples on the tick axis, emitting changes only. *)
  let traces = Array.of_list (List.map snd signals) in
  let n = Array.length traces in
  let cursor = Array.make n 0 in
  let last = Array.make n nan in
  let tick_of t =
    int_of_float (Float.round (t *. 1e12 /. float_of_int timescale_ps))
  in
  let next_time () =
    let best = ref max_int in
    for i = 0 to n - 1 do
      if cursor.(i) < Trace.length traces.(i) then
        best := min !best (tick_of (Trace.time traces.(i) (cursor.(i))))
    done;
    if !best = max_int then None else Some !best
  in
  let rec emit () =
    match next_time () with
    | None -> ()
    | Some tick ->
        let wrote_header = ref false in
        for i = 0 to n - 1 do
          while
            cursor.(i) < Trace.length traces.(i)
            && tick_of (Trace.time traces.(i) (cursor.(i))) = tick
          do
            let v = Trace.value traces.(i) (cursor.(i)) in
            cursor.(i) <- cursor.(i) + 1;
            if v <> last.(i) then begin
              if not !wrote_header then begin
                Buffer.add_string buf (Printf.sprintf "#%d\n" tick);
                wrote_header := true
              end;
              last.(i) <- v;
              Buffer.add_string buf
                (Printf.sprintf "r%.16g %s\n" v (identifier i))
            end
          done
        done;
        emit ()
  in
  emit ();
  Buffer.contents buf

let write_file path signals =
  let oc = open_out path in
  output_string oc (to_string signals);
  close_out oc
