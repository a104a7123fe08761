(** An in-memory filesystem with a bounded file-descriptor table.

    Substitutes the operating system in the port experiments: it enforces a
    descriptor limit, counts every open/close, and reports exactly how many
    descriptors leaked and how many buffered bytes were never flushed. *)

exception Descriptor_exhausted
exception Bad_descriptor of int
exception No_such_file of string

type mode = Read | Write | Append

type t

val create : ?fd_limit:int -> unit -> t
(** [fd_limit] defaults to 64. *)

(** {1 Whole-file operations} *)

val file_exists : t -> string -> bool

val read_file : t -> string -> string
(** @raise No_such_file *)

val write_file : t -> string -> string -> unit
val remove_file : t -> string -> unit

(** {1 Descriptors} *)

val openfile : t -> string -> mode -> int
(** [Write] truncates/creates, [Append] creates, [Read] requires the file.
    @raise Descriptor_exhausted at the limit
    @raise No_such_file for [Read] on a missing file *)

val close : t -> int -> unit
(** @raise Bad_descriptor if not open. *)

val is_open : t -> int -> bool

val write : t -> int -> string -> unit
(** @raise Bad_descriptor on closed or read-only descriptors. *)

val read_char : t -> int -> char option
(** [None] at end of file.
    @raise Bad_descriptor on closed or write-only descriptors. *)

val peek_char : t -> int -> char option
(** Like {!read_char} without consuming. *)

val remaining : t -> int -> string
(** Unconsumed remainder of an input descriptor's file. *)

val advance : t -> int -> int -> unit
(** Advance an input descriptor by [n] characters. *)

(** {1 Accounting} *)

val open_count : t -> int
val max_open : t -> int
val total_opens : t -> int
val total_closes : t -> int
val bytes_written : t -> int

val leaked : t -> int
(** Descriptors still open: the leak count at end of run. *)
