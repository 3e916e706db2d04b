type device = {
  base : int;
  size : int;
  read : int -> int;
  write : int -> int -> unit;
}

type t = {
  mutable devices : (string * device) list;
  mutable transfers : int;
}

exception Bus_error of int

let create () = { devices = []; transfers = 0 }

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let attach bus ~name dev =
  List.iter
    (fun (n, d) ->
      if overlaps d dev then
        invalid_arg
          (Printf.sprintf "Bus.attach: %s overlaps %s" name n))
    bus.devices;
  bus.devices <- bus.devices @ [ (name, dev) ]

(* The device mapping [addr]; a top-level loop, so a transfer builds no
   pair and no closure. *)
let rec device_at addr = function
  | [] -> raise (Bus_error addr)
  | (_, d) :: rest ->
      if addr >= d.base && addr < d.base + d.size then d
      else device_at addr rest

let iss_bus bus =
  {
    Iss.read32 =
      (fun addr ->
        bus.transfers <- bus.transfers + 1;
        let d = device_at addr bus.devices in
        d.read (addr - d.base));
    Iss.write32 =
      (fun addr v ->
        bus.transfers <- bus.transfers + 1;
        let d = device_at addr bus.devices in
        d.write (addr - d.base) v);
  }

let transfers bus = bus.transfers

module Ram = struct
  (* The words are paged, copy-on-write from one shared zero page: a
     platform run touches a few pages of its RAM and allocates only
     those. A whole array per run went straight to the major heap and
     raised the heap peak of back-to-back runs. *)
  let page_bits = 8

  let attach bus ~base ~size_words =
    let page_words = 1 lsl page_bits in
    let zero = Array.make page_words 0 in
    let pages =
      Array.make ((size_words + page_words - 1) lsr page_bits) zero
    in
    attach bus ~name:"ram"
      {
        base;
        size = size_words * 4;
        read =
          (fun off ->
            let w = off lsr 2 in
            pages.(w lsr page_bits).(w land (page_words - 1)));
        write =
          (fun off v ->
            let w = off lsr 2 in
            let p = w lsr page_bits in
            if pages.(p) == zero then pages.(p) <- Array.make page_words 0;
            pages.(p).(w land (page_words - 1)) <- v land 0xFFFFFFFF);
      }

  let load bus ~base words =
    let b = iss_bus bus in
    Array.iteri (fun i w -> b.Iss.write32 (base + (4 * i)) w) words;
    (* Loading is not bus traffic of the running program. *)
    bus.transfers <- bus.transfers - Array.length words
end

module Uart = struct
  type uart = { buf : Buffer.t; mutable tx : int }

  let attach bus ~base =
    let u = { buf = Buffer.create 256; tx = 0 } in
    attach bus ~name:"uart"
      {
        base;
        size = 16;
        read =
          (fun off ->
            match off with
            | 0 -> u.tx
            | 4 -> 1 (* transmitter always ready *)
            | _ -> 0);
        write =
          (fun off v ->
            match off with
            | 0 ->
                Buffer.add_char u.buf (Char.chr (v land 0xFF));
                u.tx <- u.tx + 1
            | _ -> ());
      };
    u

  let output u = Buffer.contents u.buf
  let tx_count u = u.tx
end

module Adc = struct
  type adc = {
    mutable sample_uv : int;
    mutable seq : int;
    mutable irq_enabled : bool;
    mutable irq : bool;
  }

  let attach bus ~base =
    let a = { sample_uv = 0; seq = 0; irq_enabled = false; irq = false } in
    attach bus ~name:"adc"
      {
        base;
        size = 16;
        read =
          (fun off ->
            match off with
            | 0 ->
                (* Reading the sample acknowledges the interrupt. *)
                a.irq <- false;
                a.sample_uv land 0xFFFFFFFF
            | 4 -> a.seq land 0xFFFFFFFF
            | 8 -> if a.irq_enabled then 1 else 0
            | _ -> 0);
        write =
          (fun off v ->
            match off with
            | 8 -> a.irq_enabled <- v land 1 = 1
            | _ -> ());
      };
    a

  let set_sample a ~volts =
    a.sample_uv <- int_of_float (Float.round (volts *. 1e6));
    a.seq <- a.seq + 1;
    if a.irq_enabled then a.irq <- true

  let samples_pushed a = a.seq
  let irq_pending a = a.irq
end
