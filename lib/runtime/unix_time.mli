(** Monotonic time in nanoseconds, for collection pause and phase
    reporting.  Only differences between two readings are meaningful. *)

external now_ns : unit -> (float[@unboxed])
  = "gbc_now_ns_byte" "gbc_now_ns"
[@@noalloc]
