(* Monotonic nanosecond clock: request latencies are a few microseconds,
   below what gettimeofday resolves. *)

let now () = Monotonic_clock.now ()

let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

let s_since t0 = ns_since t0 *. 1e-9
