(** Simulated time.

    Time is an integer number of nanoseconds since the start of the
    simulation.  Using integers (rather than floats) keeps event ordering
    exact and the simulation bit-for-bit deterministic. *)

type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

(** [of_float_s s] converts a duration in seconds to simulated time,
    rounding to the nearest nanosecond. *)
let of_float_s s = int_of_float (Float.round (s *. 1e9))

let to_ns t = t
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let to_float_s t = float_of_int t /. 1e9

let add = ( + )
let sub = ( - )
let compare = Int.compare
let equal = Int.equal
let ( < ) : t -> t -> bool = Stdlib.( < )
let ( <= ) : t -> t -> bool = Stdlib.( <= )
let min : t -> t -> t = Int.min
let max : t -> t -> t = Int.max

(** [scale t f] multiplies a duration by a float factor (used for jitter). *)
let scale t f = int_of_float (Float.round (float_of_int t *. f))

let pp ppf t =
  if t >= sec 1 then Fmt.pf ppf "%.3fs" (to_float_s t)
  else if t >= ms 1 then Fmt.pf ppf "%.3fms" (to_float_ms t)
  else if t >= us 1 then Fmt.pf ppf "%.1fus" (to_float_us t)
  else Fmt.pf ppf "%dns" t
