(* CLOCK_MONOTONIC via the bechamel stub, rebased to the first read.
   Forked workers inherit the origin, so their timestamps share the
   parent's timeline. *)

let origin = ref Int64.min_int

let now_ns () =
  let t = Monotonic_clock.now () in
  if !origin = Int64.min_int then origin := t;
  Int64.to_int (Int64.sub t !origin)
