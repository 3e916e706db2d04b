(* Journal: bounded structured event rings.

   The telemetry tests pin down the merge contract the worker pool
   relies on: events ingested from several processes merge into one
   total order consistent with every process's program order, and the
   merged order does not depend on arrival order. *)

module Journal = Amsvp_obs.Journal
module Json = Amsvp_util.Json
module Runreport = Amsvp_report.Runreport

let fresh () =
  Journal.reset ();
  Journal.enable ()

let teardown () = Journal.disable ()

(* Events of one test, selected by category so tests sharing the
   process-wide ring do not see each other. *)
let mine cat = List.filter (fun e -> e.Journal.cat = cat) (Journal.events ())

let strictly_increasing = function
  | [] -> true
  | seqs -> List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ])

let test_disabled_noop () =
  Journal.reset ();
  Journal.disable ();
  Journal.emit ~cat:"jt.noop" "nothing" [];
  Alcotest.(check int) "no event recorded" 0 (List.length (mine "jt.noop"))

let test_emit_fields () =
  fresh ();
  Journal.emit ~severity:Journal.Warn ~step:7 ~time:1.5e-3 ~cat:"jt.fields"
    "evt"
    [
      ("f", Journal.F 2.5); ("i", Journal.I (-3)); ("s", Journal.S "a\"b");
      ("b", Journal.B true);
    ];
  (match mine "jt.fields" with
  | [ e ] ->
      Alcotest.(check string) "name" "evt" e.Journal.name;
      Alcotest.(check int) "step" 7 e.Journal.step;
      Alcotest.(check (float 0.0)) "time" 1.5e-3 e.Journal.time;
      Alcotest.(check bool) "severity" true (e.Journal.severity = Journal.Warn);
      let j = Journal.event_to_json e in
      let has s =
        let n = String.length s and m = String.length j in
        let rec go i = i + n <= m && (String.sub j i n = s || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "json has payload float" true (has "\"f\":2.5");
      Alcotest.(check bool) "json escapes strings" true (has "a\\\"b");
      Alcotest.(check bool) "json has step" true (has "\"step\":7")
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
  (* step and time are omitted from JSON when left at their defaults. *)
  Journal.emit ~cat:"jt.fields2" "bare" [];
  (match mine "jt.fields2" with
  | [ e ] ->
      let j = Journal.event_to_json e in
      let lacks s =
        let n = String.length s and m = String.length j in
        let rec go i = i + n > m || (String.sub j i n <> s && go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "no step key" true (lacks "\"step\"");
      Alcotest.(check bool) "no time key" true (lacks "\"time\"")
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
  teardown ()

let test_ring_overwrites_oldest () =
  (* A ring is sized when it is created, so the new capacity takes
     effect at the reset. *)
  let old_cap = Journal.capacity () in
  Journal.set_capacity 8;
  fresh ();
  for i = 1 to 20 do
    Journal.emit ~cat:"jt.ring" "e" [ ("i", Journal.I i) ]
  done;
  Journal.set_capacity old_cap;
  let es = mine "jt.ring" in
  Alcotest.(check int) "capacity retained" 8 (List.length es);
  Alcotest.(check int) "losses accounted" 12 (Journal.dropped ());
  (* Oldest overwritten: the survivors are exactly the last 8 emits. *)
  let is' =
    List.map
      (fun e ->
        match e.Journal.payload with
        | [ ("i", Journal.I i) ] -> i
        | _ -> Alcotest.fail "payload shape")
      es
  in
  Alcotest.(check (list int)) "last events retained" [ 13; 14; 15; 16; 17; 18; 19; 20 ] is';
  teardown ()

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_dropped_trailer () =
  let old_cap = Journal.capacity () in
  Journal.set_capacity 4;
  fresh ();
  for i = 1 to 10 do
    Journal.emit ~cat:"jt.drop" "e" [ ("i", Journal.I i) ]
  done;
  Journal.set_capacity old_cap;
  let lines = Json.parse_lines (Journal.to_jsonl ()) in
  teardown ();
  Alcotest.(check int) "4 events, then the trailer" 5 (List.length lines);
  let trailer = List.nth lines 4 in
  Alcotest.(check (option string)) "trailer name" (Some "journal.dropped")
    (Json.mem_string "name" trailer);
  Alcotest.(check (option (float 0.0))) "trailer count" (Some 6.0)
    (Option.bind (Json.member "data" trailer) (Json.mem_float "count"));
  let r = Runreport.build ~journal:lines () in
  Alcotest.(check int) "report reads the count" 6 r.Runreport.r_journal_dropped;
  Alcotest.(check int) "the trailer is not an event" 4
    r.Runreport.r_journal_events;
  Alcotest.(check bool) "report prints the count" true
    (contains (Runreport.to_text r) "6 event(s) DROPPED")

(* ---- cross-process telemetry ---- *)

let mk_event ~seq ~origin ~wall_ns ?(cat = "jt.xp") name =
  {
    Journal.seq;
    origin;
    cat;
    name;
    severity = Journal.Info;
    step = -1;
    time = nan;
    wall_ns;
    payload = [];
  }

(* ---- the run report's CONVERGENCE section ---- *)

let record name payload =
  Journal.event_json
    { (mk_event ~seq:0 ~origin:"" ~wall_ns:0 ~cat:"mna" name) with
      Journal.payload }

(* Two solver runs' newton.run summaries, with their flat per-step
   counts, plus records the section must not re-count. *)
let test_report_convergence () =
  let run ~steps ~total ~wasted ~max_res ~stress counts =
    record "newton.run"
      ([ ("steps", Journal.I steps); ("total_iters", Journal.I total);
         ("wasted_iters", Journal.I wasted);
         ("max_residual", Journal.F max_res); ("dt_stress", Journal.F stress) ]
      @ List.map (fun (k, n) -> (k, Journal.I n)) counts)
  in
  let decades =
    [ "1e-15"; "1e-12"; "1e-09"; "1e-06"; "0.001"; "1"; "1000"; "inf" ]
  in
  let residuals l =
    List.map2 (fun d n -> ("residual_le_" ^ d, n)) decades l
  in
  let journal =
    [ run ~steps:10 ~total:30 ~wasted:5 ~max_res:1e-13 ~stress:0.7
        (residuals [ 6; 4; 0; 0; 0; 0; 0; 0 ]
        @ [ ("converged_at_1", 7); ("converged_at_2", 3) ]);
      record "newton.step"
        [ ("residual", Journal.F 0.5); ("converged_at", Journal.I 0);
          ("stress", Journal.F 0.9) ];
      run ~steps:5 ~total:20 ~wasted:0 ~max_res:2e-3 ~stress:0.2
        (residuals [ 3; 0; 0; 0; 0; 1; 0; 1 ]
        @ [ ("converged_at_0", 2); ("converged_at_1", 3) ]);
      record "singular_pivot" [ ("column", Journal.I 2) ] ]
  in
  let r = Runreport.build ~journal () in
  match r.Runreport.r_convergence with
  | None -> Alcotest.fail "no CONVERGENCE section"
  | Some cv ->
      Alcotest.(check int) "steps" 15 cv.Runreport.cv_steps;
      Alcotest.(check (list (pair (float 0.0) int))) "residual decades"
        [ (1e-15, 9); (1e-12, 4); (1e-9, 0); (1e-6, 0); (1e-3, 0); (1.0, 1);
          (1e3, 0); (infinity, 1) ]
        cv.cv_residual_hist;
      Alcotest.(check (list (pair int int))) "converged at"
        [ (0, 2); (1, 10); (2, 3) ] cv.cv_converged_hist;
      Alcotest.(check int) "wasted" 5 cv.cv_wasted;
      Alcotest.(check int) "total" 50 cv.cv_total_iters;
      Alcotest.(check (float 0.0)) "max residual" 2e-3 cv.cv_max_residual;
      Alcotest.(check (float 0.0)) "max stress" 0.7 cv.cv_max_stress;
      Alcotest.(check int) "singular pivots" 1 cv.cv_singular;
      let text = Runreport.to_text r in
      List.iter
        (fun line ->
          if not (contains text line) then
            Alcotest.failf "report lacks %S:\n%s" line text)
        [ "CONVERGENCE (15 reporting step(s))";
          "residual <=1e-15         9";
          "never converged within budget: 2 step(s)";
          "converged at iteration 1: 10 step(s)";
          "wasted Newton passes: 5 of 50 (10.0%)";
          "max residual: 2.000e-03   max dt-stress: 0.700" ]

let test_origin_tagging () =
  fresh ();
  Fun.protect
    ~finally:(fun () ->
      Journal.set_origin "";
      teardown ())
    (fun () ->
      Journal.set_origin "w3:1234";
      Journal.emit ~cat:"jt.origin" "tagged" [];
      (match mine "jt.origin" with
      | [ e ] ->
          Alcotest.(check string) "origin stamped" "w3:1234" e.Journal.origin;
          let j = Journal.event_to_json e in
          let has s =
            let n = String.length s and m = String.length j in
            let rec go i = i + n <= m && (String.sub j i n = s || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "json carries origin" true
            (has "\"origin\":\"w3:1234\"")
      | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
      Journal.set_origin "";
      Journal.emit ~cat:"jt.origin2" "anon" [];
      match mine "jt.origin2" with
      | [ e ] ->
          let j = Journal.event_to_json e in
          let lacks s =
            let n = String.length s and m = String.length j in
            let rec go i = i + n > m || (String.sub j i n <> s && go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "anonymous json omits origin" true
            (lacks "\"origin\"")
      | es -> Alcotest.failf "expected 1 event, got %d" (List.length es))

(* Satellite: merge determinism. Two worker streams sharing wall-clock
   timestamps (fork + a coarse clock make this real) must merge into
   the same byte sequence whichever stream the daemon happened to
   ingest first — the (origin, seq) tie-break, not arrival order,
   decides. *)
let test_merge_determinism_across_arrival_orders () =
  let stream_a =
    List.init 5 (fun i ->
        mk_event ~seq:(10 + i) ~origin:"w0:100" ~wall_ns:(1000 * (i / 2)) "a")
  in
  let stream_b =
    List.init 5 (fun i ->
        mk_event ~seq:(20 + i) ~origin:"w1:200" ~wall_ns:(1000 * (i / 2)) "b")
  in
  let merged order =
    fresh ();
    List.iter Journal.ingest order;
    let out = Journal.to_jsonl () in
    Journal.reset ();
    out
  in
  let ab = merged [ stream_a; stream_b ] in
  let ba = merged [ stream_b; stream_a ] in
  teardown ();
  Alcotest.(check string) "byte-identical merge" ab ba;
  Alcotest.(check bool) "merge nonempty" true (String.length ab > 0)

(* The concurrency contract across processes, as a deterministic
   stress test: 4 forked emitters x 500 events, each shipping its drain
   in telemetry frames after every batch of 50, read back in whatever
   order the pipes deliver. No event is lost, each origin keeps its
   program order, and the merge matches the one built from the
   opposite arrival order byte for byte. *)
let test_process_merge () =
  let n_proc = 4 and per_proc = 500 and batch = 50 in
  let spawn d =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let oc = Unix.out_channel_of_descr wr in
        Journal.set_origin (Printf.sprintf "c%d:%d" d (Unix.getpid ()));
        let mark = ref (Journal.next_seq ()) in
        for i = 1 to per_proc do
          Journal.emit ~cat:"jt.proc" "e"
            [ ("d", Journal.I d); ("i", Journal.I i) ];
          if i mod batch = 0 then begin
            let evs = Journal.events_after !mark in
            mark := Journal.next_seq ();
            output_string oc
              (Amsvp_sweep.Pool.encode_telemetry
                 (Amsvp_sweep.Pool.Tel_journal evs));
            output_char oc '\n';
            flush oc
          end
        done;
        Unix._exit 0
    | pid ->
        Unix.close wr;
        (pid, rd)
  in
  fresh ();
  let children = List.init n_proc spawn in
  (* Collect frames in arrival order, multiplexing the live pipes. *)
  let arrived = ref [] in
  let bufs = Hashtbl.create n_proc in
  let chunk = Bytes.create 65536 in
  let rec pump live =
    if live <> [] then begin
      let ready, _, _ = Unix.select live [] [] (-1.0) in
      let live =
        List.fold_left
          (fun live fd ->
            let buf =
              match Hashtbl.find_opt bufs fd with
              | Some b -> b
              | None ->
                  let b = Buffer.create 4096 in
                  Hashtbl.replace bufs fd b;
                  b
            in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                Unix.close fd;
                List.filter (( <> ) fd) live
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                let s = Buffer.contents buf in
                let lines = String.split_on_char '\n' s in
                let rec take = function
                  | [ partial ] ->
                      Buffer.clear buf;
                      Buffer.add_string buf partial
                  | line :: rest ->
                      arrived := line :: !arrived;
                      take rest
                  | [] -> ()
                in
                take lines;
                live)
          live ready
      in
      pump live
    end
  in
  pump (List.map snd children);
  List.iter
    (fun (pid, _) ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "emitter process failed")
    children;
  let frames =
    List.rev_map
      (fun line ->
        match Amsvp_sweep.Pool.decode_telemetry line with
        | `Telemetry (Amsvp_sweep.Pool.Tel_journal evs) -> evs
        | _ -> Alcotest.failf "not a journal frame: %s" line)
      !arrived
  in
  Alcotest.(check int) "every batch arrived" (n_proc * per_proc / batch)
    (List.length frames);
  let merged order =
    Journal.reset ();
    List.iter Journal.ingest order;
    let es = mine "jt.proc" in
    (es, Journal.to_jsonl ())
  in
  let es, jsonl = merged frames in
  Alcotest.(check int) "no event lost" (n_proc * per_proc) (List.length es);
  Alcotest.(check int) "no drops" 0 (Journal.dropped ());
  Alcotest.(check int) "one origin per process" n_proc
    (List.length
       (List.sort_uniq String.compare (List.map (fun e -> e.Journal.origin) es)));
  (* Per-process subsequences keep each process's program order. *)
  let last = Array.make n_proc 0 in
  List.iter
    (fun e ->
      match e.Journal.payload with
      | [ ("d", Journal.I d); ("i", Journal.I i) ] ->
          Alcotest.(check bool) "program order preserved" true (i > last.(d));
          last.(d) <- i
      | _ -> Alcotest.fail "payload shape")
    es;
  Array.iteri
    (fun d n ->
      Alcotest.(check int) (Printf.sprintf "process %d complete" d) per_proc n)
    last;
  let _, jsonl' = merged (List.rev frames) in
  teardown ();
  Alcotest.(check string) "merge independent of arrival order" jsonl jsonl'

let test_events_after_drains_own_origin_only () =
  fresh ();
  Fun.protect
    ~finally:(fun () ->
      Journal.set_origin "";
      teardown ())
    (fun () ->
      Journal.set_origin "me:1";
      (* Inherited-from-parent or previously ingested foreign events
         must never be re-shipped, whatever their seq. *)
      Journal.ingest [ mk_event ~seq:max_int ~origin:"other:2" ~wall_ns:5 "x" ];
      let mark = Journal.next_seq () in
      Journal.emit ~cat:"jt.drain" "one" [];
      Journal.emit ~cat:"jt.drain" "two" [];
      let drained = Journal.events_after mark in
      Alcotest.(check int) "own events only" 2 (List.length drained);
      List.iter
        (fun e -> Alcotest.(check string) "origin" "me:1" e.Journal.origin)
        drained;
      Alcotest.(check bool) "seq order" true
        (strictly_increasing (List.map (fun e -> e.Journal.seq) drained));
      (* Advancing the watermark past the first event drains the rest. *)
      let rest = Journal.events_after (mark + 1) in
      Alcotest.(check int) "watermark advances" 1 (List.length rest);
      match rest with
      | [ e ] -> Alcotest.(check string) "newest survives" "two" e.Journal.name
      | _ -> Alcotest.fail "unreachable")

(* ---- incremental sink ---- *)

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  end

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let rm path = if Sys.file_exists path then Sys.remove path

let test_sink_incremental_flush () =
  let path = tmp "amsvp_journal_sink.jsonl" in
  rm path;
  fresh ();
  Journal.attach_sink path;
  Journal.emit ~cat:"jt.sink" "a" [];
  Journal.emit ~cat:"jt.sink" "b" [];
  Journal.flush ();
  let n1 = List.length (read_lines path) in
  Alcotest.(check bool) "first flush wrote" true (n1 >= 2);
  (* A second flush with nothing new appends nothing... *)
  Journal.flush ();
  Alcotest.(check int) "idempotent flush" n1 (List.length (read_lines path));
  (* ...and later events append without rewriting the prefix. *)
  Journal.emit ~cat:"jt.sink" "c" [];
  Journal.detach_sink ();
  Alcotest.(check int) "append only" (n1 + 1) (List.length (read_lines path));
  (* Detached: flush is a no-op again. *)
  Journal.emit ~cat:"jt.sink" "d" [];
  Journal.flush ();
  Alcotest.(check int) "detached" (n1 + 1) (List.length (read_lines path));
  rm path;
  teardown ()

let test_sink_rotation () =
  let path = tmp "amsvp_journal_rot.jsonl" in
  rm path;
  rm (path ^ ".1");
  rm (path ^ ".2");
  fresh ();
  (* Tiny limit: every flush of one event crosses it and rotates. *)
  Journal.attach_sink ~max_bytes:64 ~keep:2 path;
  for i = 1 to 4 do
    Journal.emit ~cat:"jt.rot" "e" [ ("i", Journal.I i) ];
    Journal.flush ()
  done;
  Alcotest.(check bool) "rotated once" true (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "rotated twice" true (Sys.file_exists (path ^ ".2"));
  Alcotest.(check bool) "keep bound respected" false
    (Sys.file_exists (path ^ ".3"));
  (* Nothing lost across the kept generations: every line everywhere is
     valid single-line JSON and the newest file holds the newest event. *)
  let all =
    read_lines (path ^ ".2") @ read_lines (path ^ ".1") @ read_lines path
  in
  Alcotest.(check bool) "kept recent events" true (List.length all >= 2);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is json" true
        (String.length l > 0 && l.[0] = '{'))
    all;
  Journal.detach_sink ();
  rm path;
  rm (path ^ ".1");
  rm (path ^ ".2");
  teardown ()

(* Worker seq counters restart per process, so a freshly ingested
   foreign event whose seq is far below the daemon's own must still
   reach the sink: flush watermarks are per origin. *)
let test_sink_per_origin_watermark () =
  let path = tmp "amsvp_journal_origins.jsonl" in
  rm path;
  fresh ();
  Journal.attach_sink path;
  Journal.emit ~cat:"jt.ow" "local" [];
  Journal.flush ();
  let n1 = List.length (read_lines path) in
  Journal.ingest [ mk_event ~seq:0 ~origin:"w0:50" ~wall_ns:1 "foreign" ];
  Journal.flush ();
  Alcotest.(check int) "low-seq foreign event flushed" (n1 + 1)
    (List.length (read_lines path));
  Journal.flush ();
  Alcotest.(check int) "foreign watermark sticks" (n1 + 1)
    (List.length (read_lines path));
  Journal.ingest [ mk_event ~seq:1 ~origin:"w0:50" ~wall_ns:2 "foreign2" ];
  Journal.detach_sink ();
  Alcotest.(check int) "subsequent foreign event flushed" (n1 + 2)
    (List.length (read_lines path));
  rm path;
  teardown ()

let () =
  Alcotest.run "journal"
    [
      ( "basics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "emit fields and json" `Quick test_emit_fields;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_ring_overwrites_oldest;
          Alcotest.test_case "dump ends with the dropped count" `Quick
            test_dropped_trailer;
        ] );
      ( "report",
        [ Alcotest.test_case "convergence from newton.run" `Quick
            test_report_convergence ] );
      ( "concurrency",
        [ Alcotest.test_case "4-process merge" `Quick test_process_merge ] );
      ( "telemetry",
        [
          Alcotest.test_case "origin tagging" `Quick test_origin_tagging;
          Alcotest.test_case "merge deterministic across arrival orders"
            `Quick test_merge_determinism_across_arrival_orders;
          Alcotest.test_case "events_after drains own origin only" `Quick
            test_events_after_drains_own_origin_only;
        ] );
      ( "sink",
        [
          Alcotest.test_case "incremental flush" `Quick
            test_sink_incremental_flush;
          Alcotest.test_case "size-based rotation" `Quick test_sink_rotation;
          Alcotest.test_case "per-origin flush watermarks" `Quick
            test_sink_per_origin_watermark;
        ] );
    ]
