(** Monotonic time in nanoseconds ([clock_gettime(CLOCK_MONOTONIC)]), for
    collection pause and phase reporting. *)

external now_ns : unit -> (float[@unboxed])
  = "gbc_now_ns_byte" "gbc_now_ns"
[@@noalloc]
