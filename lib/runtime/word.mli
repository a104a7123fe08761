(** Tagged machine words of the simulated heap.

    Every slot of the simulated heap, every root, and every value the
    mutator manipulates is a {!t} — an OCaml [int] carrying a Chez-style
    low-bit tag:

    {v
      bit 0 = 0                   fixnum, value = w asr 1
      bits [0..2] = 0b001         pair pointer,  address = w lsr 3
      bits [0..2] = 0b011         typed-object pointer, address = w lsr 3
      bits [0..2] = 0b101         immediate; bits [3..10] = code,
                                  bits [11..] = payload (characters)
    v}

    Weak pairs carry the ordinary pair tag; they are distinguished by the
    {e space} of the segment they live in, exactly as in the paper. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Fixnums} *)

val fixnum_min : int
val fixnum_max : int

val of_fixnum : int -> t
(** Tag an integer.  The value must fit in [fixnum_min .. fixnum_max]. *)

val is_fixnum : t -> bool
val to_fixnum : t -> int

val mul_exact : int -> int -> int
(** [x * y], or [max_int] (never a fixnum value) when the product
    overflows an OCaml [int]: a caller range-checks the result against
    [fixnum_min .. fixnum_max] instead of seeing a wrapped value. *)

(** {1 Pointers} *)

val is_pair_ptr : t -> bool
(** Pair pointer (ordinary or weak — weakness is a property of the
    segment, not the tag). *)

val is_typed_ptr : t -> bool
(** Pointer to a header-prefixed typed object. *)

val is_pointer : t -> bool
(** Any heap pointer. *)

val pair_ptr : int -> t
val typed_ptr : int -> t

val addr : t -> int
(** Address of a pointer word.  Undefined on non-pointers. *)

val with_addr : t -> int -> t
(** Same tag, new address (used when forwarding). *)

(** {1 Immediates} *)

val imm : int -> int -> t
(** [imm code payload]. *)

val is_imm : t -> bool
val imm_code : t -> int

val code_char : int

val code_forward : int
(** Reserved for the collector's forwarding marker; never constructed by
    mutator code. *)

val nil : t
val false_ : t
val true_ : t
val eof : t
val void : t
val unbound : t
val forward_marker : t

val of_bool : bool -> t
val of_char : char -> t
val is_char : t -> bool
val to_char : t -> char
val is_nil : t -> bool
val is_false : t -> bool
val is_true : t -> bool

val truthy : t -> bool
(** Scheme truthiness: everything except [#f]. *)

val pp : Format.formatter -> t -> unit
