(* Bounded structured event journal. See journal.mli for the cost
   model.

   Two rings: this process's own events, and the events ingested from
   other processes. Both are created on first use, with the capacity in
   force at that moment. The sequence counter is process-wide, so the
   own ring's insertion order is seq order. *)

module Json = Amsvp_util.Json

type severity = Debug | Info | Warn | Error

let severity_label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type value = F of float | I of int | S of string | B of bool

type event = {
  seq : int;
  origin : string;
  cat : string;
  name : string;
  severity : severity;
  step : int;
  time : float;
  wall_ns : int;
  payload : (string * value) list;
}

(* The process's origin tag, stamped on every event it emits. "" is the
   anonymous single-process default; the daemon sets "daemon" and each
   forked point-worker sets "w<slot>:<pid>" right after the fork, so a
   merged multi-process journal attributes every event. *)
let origin_cell = ref ""
let origin () = !origin_cell
let set_origin o = origin_cell := o

let on = ref false
let enabled () = !on
let set_enabled b = on := b
let enable () = on := true
let disable () = on := false

let default_capacity = 65536
let cap_cell = ref default_capacity
let capacity () = !cap_cell

let set_capacity n =
  if n < 1 then invalid_arg "Journal.set_capacity: capacity must be positive";
  cap_cell := n

let seq_counter = ref 0

let dummy_event =
  {
    seq = 0;
    origin = "";
    cat = "";
    name = "";
    severity = Info;
    step = -1;
    time = nan;
    wall_ns = 0;
    payload = [];
  }

type buffer = {
  cap : int;
  arr : event array;
  mutable start : int;  (* index of the oldest event *)
  mutable len : int;
  mutable b_dropped : int;
}

let make_buffer () =
  let cap = capacity () in
  { cap; arr = Array.make cap dummy_event; start = 0; len = 0; b_dropped = 0 }

(* [None] until the first event: a ring is sized when it is created. *)
let own : buffer option ref = ref None

(* Events ingested from other processes go into a dedicated ring so a
   foreign burst cannot evict this process's own events, and so their
   seq numbers (from the sender's counter) never touch ours. *)
let foreign : buffer option ref = ref None

let ring cell =
  match !cell with
  | Some b -> b
  | None ->
      let b = make_buffer () in
      cell := Some b;
      b

let push b e =
  if b.len = b.cap then begin
    (* Ring full: overwrite the oldest (recent telemetry is worth more
       than start-up noise) and account for the loss. *)
    b.arr.(b.start) <- e;
    b.start <- (b.start + 1) mod b.cap;
    b.b_dropped <- b.b_dropped + 1
  end
  else begin
    b.arr.((b.start + b.len) mod b.cap) <- e;
    b.len <- b.len + 1
  end

let emit ?(severity = Info) ?(step = -1) ?(time = nan) ~cat name payload =
  if !on then begin
    let seq = !seq_counter in
    seq_counter := seq + 1;
    push (ring own)
      {
        seq;
        origin = !origin_cell;
        cat;
        name;
        severity;
        step;
        time;
        wall_ns = Clock.now_ns ();
        payload;
      }
  end

let next_seq () = !seq_counter

let ingest evs = if !on && evs <> [] then List.iter (push (ring foreign)) evs

let buffers () = List.filter_map ( ! ) [ own; foreign ]
let count () = List.fold_left (fun n b -> n + b.len) 0 (buffers ())
let dropped () = List.fold_left (fun n b -> n + b.b_dropped) 0 (buffers ())
let event_at b i = b.arr.((b.start + i) mod b.cap)

(* Merged order: wall-clock first so a multi-process merge reads as a
   timeline, then (origin, seq) so identical timestamps — common when
   two workers share a coarse clock tick — order deterministically
   regardless of arrival order. Within one origin wall_ns and seq are
   both nondecreasing in program order, so this preserves each
   process's own ordering. *)
let event_order a b =
  compare (a.wall_ns, a.origin, a.seq) (b.wall_ns, b.origin, b.seq)

let events () =
  List.concat_map (fun b -> List.init b.len (event_at b)) (buffers ())
  |> List.sort event_order

(* Only the own ring can hold events of this origin with our seq
   numbers. Its insertion order is seq order, so walking back from the
   newest entry and stopping at the first seq below [n] costs
   O(matches), not O(ring) — which matters when a worker drains after
   every task from a ring it inherited nearly full from a long-lived
   parent. Inherited events carry the parent's origin and are skipped. *)
let events_after n =
  match !own with
  | None -> []
  | Some b ->
      let me = !origin_cell in
      let rec back i acc =
        if i < 0 then acc
        else
          let e = event_at b i in
          if e.seq < n then acc
          else back (i - 1) (if String.equal e.origin me then e :: acc else acc)
      in
      back (b.len - 1) []

(* Dropping the rings (rather than emptying them) lets a new capacity
   take effect. *)
let reset () =
  own := None;
  foreign := None

(* ---- JSONL sink ---- *)

(* JSON has no literal for non-finite floats; {!Json.print} writes them
   as the strings "NaN"/"Infinity"/"-Infinity", which readers treat as
   the floats they name. *)
let event_json e =
  let open Json in
  let int i = Num (float_of_int i) in
  let value = function
    | F f -> Num f
    | I i -> int i
    | S s -> Str s
    | B b -> Bool b
  in
  Obj
    ([ ("seq", int e.seq); ("cat", Str e.cat);
       ("name", Str e.name); ("sev", Str (severity_label e.severity)) ]
    @ (if e.origin <> "" then [ ("origin", Str e.origin) ] else [])
    @ (if e.step >= 0 then [ ("step", int e.step) ] else [])
    @ (if Float.is_finite e.time then [ ("time", Num e.time) ] else [])
    @ [ ("wall_ns", int e.wall_ns);
        ("data", Obj (List.map (fun (k, v) -> (k, value v)) e.payload)) ])

let event_to_json e = Json.print (event_json e)

(* The trailer of a dump whose rings lost events: not an event (it
   has no seq or wall clock), a record of how many are missing. *)
let dropped_json n =
  Json.Obj
    [ ("cat", Json.Str "obs"); ("name", Json.Str "journal.dropped");
      ("sev", Json.Str "warn");
      ("data", Json.Obj [ ("count", Json.Num (float_of_int n)) ]) ]

let to_jsonl () =
  let b = Buffer.create 4096 in
  let line j =
    Buffer.add_string b (Json.print j);
    Buffer.add_char b '\n'
  in
  List.iter (fun e -> line (event_json e)) (events ());
  if dropped () > 0 then line (dropped_json (dropped ()));
  Buffer.contents b

let write_jsonl path =
  let oc = open_out_bin path in
  output_string oc (to_jsonl ());
  close_out oc

(* ---- incremental sink with rotation ----

   [write_jsonl] rewrites the whole buffer and is fine for one-shot
   CLI runs that dump once at exit. A daemon never exits, and its ring
   buffers overwrite old events, so it instead attaches a sink and
   flushes periodically: each flush appends only the events newer than
   the previous flush, and the file rotates (path -> path.1 -> ... ->
   path.keep) once it grows past [max_bytes]. *)

type sink = {
  s_path : string;
  s_max_bytes : int option;
  s_keep : int;
  s_marks : (string, int) Hashtbl.t;  (* origin -> highest seq flushed *)
  mutable s_bytes : int;  (* bytes written to the live file *)
}

let sink : sink option ref = ref None

let rotated path i = Printf.sprintf "%s.%d" path i

let rotate s =
  for i = s.s_keep - 1 downto 1 do
    let src = rotated s.s_path i in
    if Sys.file_exists src then Sys.rename src (rotated s.s_path (i + 1))
  done;
  if s.s_keep >= 1 && Sys.file_exists s.s_path then
    Sys.rename s.s_path (rotated s.s_path 1)
  else if Sys.file_exists s.s_path then Sys.remove s.s_path;
  s.s_bytes <- 0

let flush () =
  match !sink with
  | None -> ()
  | Some s ->
      (* Seq counters are per-process, so the "already flushed"
         watermark is kept per origin: a worker's seq 3 arriving after
         the daemon's seq 900 is still fresh. *)
      let mark origin =
        Option.value ~default:(-1) (Hashtbl.find_opt s.s_marks origin)
      in
      let fresh = List.filter (fun e -> e.seq > mark e.origin) (events ()) in
      if fresh <> [] then begin
        let oc =
          open_out_gen
            [ Open_append; Open_creat; Open_wronly; Open_binary ]
            0o644 s.s_path
        in
        let b = Buffer.create 4096 in
        List.iter
          (fun e ->
            Buffer.add_string b (event_to_json e);
            Buffer.add_char b '\n';
            if e.seq > mark e.origin then
              Hashtbl.replace s.s_marks e.origin e.seq)
          fresh;
        output_string oc (Buffer.contents b);
        close_out oc;
        s.s_bytes <- s.s_bytes + Buffer.length b;
        match s.s_max_bytes with
        | Some limit when s.s_bytes >= limit -> rotate s
        | _ -> ()
      end

let attach_sink ?max_bytes ?(keep = 3) path =
  (match max_bytes with
  | Some n when n < 1 ->
      invalid_arg "Journal.attach_sink: max_bytes must be positive"
  | _ -> ());
  if keep < 0 then invalid_arg "Journal.attach_sink: keep must be >= 0";
  (* Attaching starts a fresh live file: a previous run's log is not
     silently extended. *)
  if Sys.file_exists path then Sys.remove path;
  sink :=
    Some
      { s_path = path; s_max_bytes = max_bytes; s_keep = keep;
        s_marks = Hashtbl.create 7; s_bytes = 0 }

let detach_sink () =
  flush ();
  sink := None
