external now_ns : unit -> int = "obs_clock_monotonic_ns" [@@noalloc]

external coarse_now_ns : unit -> int = "obs_clock_coarse_ns" [@@noalloc]

let ns_to_us ns = float_of_int ns /. 1e3

let ns_to_ms ns = float_of_int ns /. 1e6
