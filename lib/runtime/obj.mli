(** Object layer: typed views over heap words.

    Pairs and weak pairs are bare two-word cells in the pair and weak-pair
    spaces.  Everything else is a {e typed object}: a fixnum header word
    encoding [(field_count << 8) | type_code] followed by the fields.
    Zero-field objects are padded to two words (see {!code_pad}) so the
    collector's forwarding marker and address always fit.

    All pointer-field mutators apply the write barrier
    ({!Heap.note_mutation}). *)

(** {1 Type codes} *)

val code_vector : int
val code_string : int
val code_symbol : int
val code_box : int
val code_closure : int
val code_port : int
val code_guardian : int
val code_bytevector : int
val code_flonum : int
val code_record : int

val code_continuation : int
(** Reified VM continuations (layout owned by the Scheme machine). *)

val code_pad : int
(** One-word filler after zero-field objects; parses as a zero-length
    object so sweeps skip it naturally. *)

val type_name : int -> string
val header : len:int -> code:int -> Word.t
val header_len : Word.t -> int
val header_code : Word.t -> int

(** {1 Pairs} *)

val cons : Heap.t -> Word.t -> Word.t -> Word.t
val weak_cons : Heap.t -> Word.t -> Word.t -> Word.t

val ephemeron_cons : Heap.t -> Word.t -> Word.t -> Word.t
(** Key/value cell: the value is traced only while the key is otherwise
    reachable; both become [#f] when the key dies.  Unlike a weak pair, an
    ephemeron does not leak when the value references its own key. *)

val is_pair : Heap.t -> Word.t -> bool
val is_weak_pair : Heap.t -> Word.t -> bool
val is_ephemeron : Heap.t -> Word.t -> bool

val car : Heap.t -> Word.t -> Word.t
val cdr : Heap.t -> Word.t -> Word.t
val set_car : Heap.t -> Word.t -> Word.t -> unit
val set_cdr : Heap.t -> Word.t -> Word.t -> unit

(** {1 Generic typed objects} *)

val make_typed :
  Heap.t -> code:int -> ?data:bool -> len:int -> init:Word.t -> unit -> Word.t
(** [data] selects the untraced data space. *)

val typed_code : Heap.t -> Word.t -> int
val typed_len : Heap.t -> Word.t -> int
val has_code : Heap.t -> Word.t -> int -> bool
val field : Heap.t -> Word.t -> int -> Word.t
val set_field : Heap.t -> Word.t -> int -> Word.t -> unit

(** {1 Vectors} *)

val make_vector : Heap.t -> len:int -> init:Word.t -> Word.t
val is_vector : Heap.t -> Word.t -> bool
val vector_length : Heap.t -> Word.t -> int
val vector_ref : Heap.t -> Word.t -> int -> Word.t
val vector_set : Heap.t -> Word.t -> int -> Word.t -> unit
val vector_of_list : Heap.t -> Word.t list -> Word.t

(** {1 Strings (data space, one character per word)} *)

val make_string : Heap.t -> len:int -> fill:char -> Word.t
val is_string : Heap.t -> Word.t -> bool
val string_length : Heap.t -> Word.t -> int
val string_ref : Heap.t -> Word.t -> int -> char
val string_set : Heap.t -> Word.t -> int -> char -> unit
val string_of_ocaml : Heap.t -> string -> Word.t
val string_to_ocaml : Heap.t -> Word.t -> string

(** {1 Bytevectors} *)

val make_bytevector : Heap.t -> len:int -> fill:int -> Word.t
val bytevector_length : Heap.t -> Word.t -> int
val bytevector_ref : Heap.t -> Word.t -> int -> int
val bytevector_set : Heap.t -> Word.t -> int -> int -> unit

(** {1 Boxes} *)

val make_box : Heap.t -> Word.t -> Word.t
val is_box : Heap.t -> Word.t -> bool
val box_ref : Heap.t -> Word.t -> Word.t
val box_set : Heap.t -> Word.t -> Word.t -> unit

(** {1 Flonums (data space, IEEE bits in two words)} *)

val make_flonum : Heap.t -> float -> Word.t
val is_flonum : Heap.t -> Word.t -> bool
val flonum_value : Heap.t -> Word.t -> float

(** {1 Symbols} *)

val make_symbol : Heap.t -> name:Word.t -> Word.t
(** [name] is a heap string.  Interning lives in {!Symtab}. *)

val is_symbol : Heap.t -> Word.t -> bool
val symbol_name_string : Heap.t -> Word.t -> string

val symbol_global : Heap.t -> Word.t -> int
(** Global-variable cell id of the symbol, or -1. *)

val symbol_set_global : Heap.t -> Word.t -> int -> unit

(** {1 Records} *)

val make_record : Heap.t -> tag:Word.t -> len:int -> init:Word.t -> Word.t
val is_record : Heap.t -> Word.t -> bool
val record_tag : Heap.t -> Word.t -> Word.t
val record_length : Heap.t -> Word.t -> int
val record_ref : Heap.t -> Word.t -> int -> Word.t
val record_set : Heap.t -> Word.t -> int -> Word.t -> unit

(** {1 Lists} *)

val list_of : Heap.t -> Word.t list -> Word.t
val to_list : Heap.t -> Word.t -> Word.t list
val list_length : Heap.t -> Word.t -> int

(** {1 Hashing} *)

val eq_hash : Word.t -> int
(** Identity hash: address-based for pointers, hence unstable across
    collections — the instability transport guardians manage. *)
