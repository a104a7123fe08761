(** Tagged machine words of the simulated heap.

    Every slot of the simulated heap, every root, and every value the
    mutator manipulates is a [Word.t] — an OCaml [int] carrying a Chez-style
    low-bit tag:

    {v
      bit 0 = 0                   fixnum, value = w asr 1
      bits [0..2] = 0b001         pair pointer,  address = w asr 3
      bits [0..2] = 0b011         typed-object pointer, address = w asr 3
      bits [0..2] = 0b101         immediate; bits [3..10] = code,
                                  bits [11..] = payload (characters)
      bits [0..2] = 0b111         reserved (never constructed)
    v}

    Weak pairs carry the ordinary pair tag; they are distinguished by the
    {e space} of the segment they live in, exactly as in the paper.

    Addresses are segment-strided: [address = (segment lsl stride_bits) lor
    offset], see {!Store}. *)

type t = int

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare a b

(* ------------------------------------------------------------------ *)
(* Fixnums                                                             *)

let fixnum_min = min_int asr 1
let fixnum_max = max_int asr 1

let[@inline] of_fixnum n =
  assert (n >= fixnum_min && n <= fixnum_max);
  n lsl 1

let[@inline] is_fixnum w = w land 1 = 0
let[@inline] to_fixnum w =
  assert (is_fixnum w);
  w asr 1

let mul_exact x y =
  let r = x * y in
  if x <> 0 && r / x <> y then max_int else r

(* ------------------------------------------------------------------ *)
(* Pointers                                                            *)

let tag_mask = 0b111
let pair_tag = 0b001
let typed_tag = 0b011
let imm_tag = 0b101

let[@inline] is_pair_ptr w = w land tag_mask = pair_tag
let[@inline] is_typed_ptr w = w land tag_mask = typed_tag
let[@inline] is_pointer w = w land 1 = 1 && w land tag_mask <> imm_tag

let pair_ptr addr = (addr lsl 3) lor pair_tag
let typed_ptr addr = (addr lsl 3) lor typed_tag

let[@inline] addr w =
  assert (is_pointer w);
  w lsr 3

(* Rebuild a pointer with the same tag but a new address: used by the
   collector when forwarding. *)
let with_addr w addr = (addr lsl 3) lor (w land tag_mask)

(* ------------------------------------------------------------------ *)
(* Immediates                                                          *)

let imm code payload = (payload lsl 11) lor (code lsl 3) lor imm_tag
let is_imm w = w land tag_mask = imm_tag
let imm_code w = (w lsr 3) land 0xff
let imm_payload w = w lsr 11

let code_nil = 0
let code_false = 1
let code_true = 2
let code_eof = 3
let code_void = 4
let code_unbound = 5
let code_char = 6

(* The forwarding marker is written by the collector over the first word of
   a copied object; it must be distinguishable from every word a mutator can
   store.  Immediate code 7 is reserved for it and never constructed
   elsewhere. *)
let code_forward = 7

let nil = imm code_nil 0
let false_ = imm code_false 0
let true_ = imm code_true 0
let eof = imm code_eof 0
let void = imm code_void 0
let unbound = imm code_unbound 0
let forward_marker = imm code_forward 0

let of_bool b = if b then true_ else false_

let of_char c = imm code_char (Char.code c)
let is_char w = is_imm w && imm_code w = code_char
let to_char w =
  assert (is_char w);
  Char.chr (imm_payload w land 0xff)

let is_nil w = w = nil
let is_false w = w = false_
let is_true w = w = true_

(* Scheme truthiness: everything except #f. *)
let truthy w = w <> false_

let pp ppf w =
  if is_fixnum w then Format.fprintf ppf "fx:%d" (to_fixnum w)
  else if is_pair_ptr w then Format.fprintf ppf "pair@%d" (addr w)
  else if is_typed_ptr w then Format.fprintf ppf "obj@%d" (addr w)
  else if is_char w then Format.fprintf ppf "char:%C" (to_char w)
  else if is_nil w then Format.pp_print_string ppf "()"
  else if is_false w then Format.pp_print_string ppf "#f"
  else if is_true w then Format.pp_print_string ppf "#t"
  else if w = eof then Format.pp_print_string ppf "#eof"
  else if w = void then Format.pp_print_string ppf "#void"
  else if w = unbound then Format.pp_print_string ppf "#unbound"
  else if w = forward_marker then Format.pp_print_string ppf "#fwd"
  else Format.fprintf ppf "imm:%d" w
