(** Heap invariant verifier: a debugging walk over the whole heap checking
    the structural invariants the collector relies on — segment table
    sanity, object parse, pointer validity (heap slots and roots), space
    discipline, the remembered-set invariant, and protected-list
    well-formedness.  The object starts and the slot check are exported
    for a heap image's verified load. *)

type error = { what : string; where : string }

val verify : Heap.t -> error list
(** Empty when the heap is consistent.  Must not be called during a
    collection. *)

val check_exn : Heap.t -> unit
(** @raise Failure listing every violation. *)

type slot = Field | Global | Entry | Root of string
(** With [a b k], names a slot: field [k] (car/cdr in pair space) of the
    object at offset [b] in segment [a]; global cell [a]; word [k]
    (obj/rep/tconc) of entry [b] of generation [a]'s protected list; word
    [b] of a heap image's root section [name]. *)

type starts

val object_starts : Heap.t -> word:(int -> int -> Word.t) -> err:(error -> unit) -> starts
(** Parses the live typed and data segments' headers, word [off] of
    segment [seg] read as [word seg off]; parse faults go to [err]. *)

type fault

val pointer_fault : starts -> min_gen:int -> Word.t -> Heap.seg_info -> fault option
(** The check of a pointer whose target lies in segment [ti]'s used words:
    an object start, in generation [min_gen] or older, tagged for [ti]'s
    space. *)

val value_fault : Word.t -> fault option
(** The check of any other word: it is not the forwarding marker. *)

val fault_error : Heap.t -> fault -> slot -> int -> int -> int -> Word.t -> error
(** The error {!verify} reports for a fault of word [w] in slot [kind a b k]. *)
