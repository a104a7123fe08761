(** Ports: buffered character I/O objects over the virtual filesystem —
    the paper's example of an object whose reclamation must trigger
    clean-up.  Nothing here closes ports automatically; that is
    {!Guarded_port}'s job. *)

open Gbc_runtime

exception Closed_port

val is_port : Heap.t -> Word.t -> bool
val open_input : Ctx.t -> string -> Word.t
val open_output : Ctx.t -> string -> Word.t
val is_input : Heap.t -> Word.t -> bool
val is_output : Heap.t -> Word.t -> bool
val is_closed : Heap.t -> Word.t -> bool
val name : Heap.t -> Word.t -> string
val fd : Heap.t -> Word.t -> int

val buffered : Heap.t -> Word.t -> int
(** Bytes sitting in the output buffer, not yet flushed. *)

val flush : Ctx.t -> Word.t -> unit
val write_char : Ctx.t -> Word.t -> char -> unit
val write_string : Ctx.t -> Word.t -> string -> unit
val read_char : Ctx.t -> Word.t -> char option
val peek_char : Ctx.t -> Word.t -> char option

val remaining_input : Ctx.t -> Word.t -> string
(** Unconsumed input, without consuming it (used by the Scheme [read]). *)

val advance_input : Ctx.t -> Word.t -> int -> unit

val close : Ctx.t -> Word.t -> unit
(** Flushes output ports first; closing twice is harmless. *)
