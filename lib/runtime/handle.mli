(** Handles: rooted references to heap values for OCaml-side code.

    A raw {!Word.t} is only valid until the next collection; a handle wraps
    a global root cell, so the word it yields is always current.  Handles
    have explicit lifetimes; freeing is idempotent. *)

type t

val create : Heap.t -> Word.t -> t

val get : t -> Word.t
(** @raise Invalid_argument if the handle was freed. *)

val set : t -> Word.t -> unit
(** @raise Invalid_argument if the handle was freed. *)

val free : t -> unit
(** Idempotent. *)

val with_handle : Heap.t -> Word.t -> (t -> 'a) -> 'a
(** Scoped handle: freed on exit, exceptions included. *)
