(** Heap invariant verifier: a debugging walk over the whole heap checking
    the structural invariants the collector relies on — segment table
    sanity, object parse, pointer validity (heap slots and roots), space
    discipline, the remembered-set invariant, and protected-list
    well-formedness. *)

type error = { what : string; where : string }

val verify : ?roots:(string * Word.t array) list -> Heap.t -> error list
(** Empty when the heap is consistent.  Each [(name, words)] of [roots]
    is checked like the global cells; an error names word [i] of it as
    [name[i]].  Must not be called during a collection. *)

val check_exn : Heap.t -> unit
(** @raise Failure listing every violation. *)
