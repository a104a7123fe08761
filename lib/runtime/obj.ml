(** Object layer: typed views over heap words.

    Pairs and weak pairs are bare two-word cells living in the pair and
    weak-pair spaces.  Everything else is a {e typed object}: a fixnum
    header word encoding [(field_count << 8) | type_code] followed by
    [field_count] field words.  Typed objects containing pointers live in
    the typed space; pointer-free bodies (strings, bytevectors) live in the
    data space and are copied without being traced.

    All pointer-field mutators apply the write barrier
    ({!Heap.note_mutation}), so old-to-young stores are remembered. *)

(* ------------------------------------------------------------------ *)
(* Type codes                                                          *)

let code_vector = 0
let code_string = 1
let code_symbol = 2
let code_box = 3
let code_closure = 4
let code_port = 5
let code_guardian = 6
let code_bytevector = 7
let code_flonum = 8
let code_record = 9

let code_continuation = 10

(* A one-word filler emitted after zero-field objects so that every real
   object spans at least two words — the collector overwrites the first two
   words of a copied object with the forwarding marker and address.  Pads
   parse as zero-length objects, so sweeps skip them naturally. *)
let code_pad = 11

let type_name = function
  | 0 -> "vector"
  | 1 -> "string"
  | 2 -> "symbol"
  | 3 -> "box"
  | 4 -> "closure"
  | 5 -> "port"
  | 6 -> "guardian"
  | 7 -> "bytevector"
  | 8 -> "flonum"
  | 9 -> "record"
  | 10 -> "continuation"
  | 11 -> "pad"
  | _ -> "unknown"

let header ~len ~code = Word.of_fixnum ((len lsl 8) lor code)
let[@inline] header_len h = Word.to_fixnum h lsr 8
let[@inline] header_code h = Word.to_fixnum h land 0xff

(* ------------------------------------------------------------------ *)
(* Pairs                                                               *)

let cons h a d =
  let addr = Heap.alloc h ~space:Space.Pair 2 in
  Heap.store h addr a;
  Heap.store h (addr + 1) d;
  Word.pair_ptr addr

(** Weak pair: car is a weak pointer; distinguished solely by living in the
    weak-pair space. *)
let weak_cons h a d =
  let addr = Heap.alloc h ~space:Space.Weak 2 in
  Heap.store h addr a;
  Heap.store h (addr + 1) d;
  Word.pair_ptr addr

(** Ephemeron pair: the car (key) is weak, and the cdr (value) is traced
    only while the key is otherwise reachable; both fields are broken to
    [#f] when the key dies.  Unlike a weak pair, an ephemeron does not leak
    when the value references its own key. *)
let ephemeron_cons h k v =
  let addr = Heap.alloc h ~space:Space.Ephemeron 2 in
  Heap.store h addr k;
  Heap.store h (addr + 1) v;
  Word.pair_ptr addr

let is_pair h w = Word.is_pair_ptr w && (Heap.info_of_word h w).space = Space.Pair
let is_weak_pair h w = Word.is_pair_ptr w && (Heap.info_of_word h w).space = Space.Weak

let is_ephemeron h w =
  Word.is_pair_ptr w && (Heap.info_of_word h w).space = Space.Ephemeron

let[@inline] car h w =
  assert (Word.is_pair_ptr w);
  Heap.load h (Word.addr w)

let[@inline] cdr h w =
  assert (Word.is_pair_ptr w);
  Heap.load h (Word.addr w + 1)

let set_car h w v =
  assert (Word.is_pair_ptr w);
  let addr = Word.addr w in
  Heap.store h addr v;
  Heap.note_mutation h ~addr ~value:v

let set_cdr h w v =
  assert (Word.is_pair_ptr w);
  let addr = Word.addr w + 1 in
  Heap.store h addr v;
  Heap.note_mutation h ~addr ~value:v

(* ------------------------------------------------------------------ *)
(* Generic typed objects                                               *)

(** Allocate a typed object with [len] fields, all initialized to [init].
    [data] selects the untraced data space. *)
let make_typed h ~code ?(data = false) ~len ~init () =
  let space = if data then Space.Data else Space.Typed in
  let size = max (len + 1) 2 in
  let addr = Heap.alloc h ~space size in
  Heap.store h addr (header ~len ~code);
  for i = 1 to len do
    Heap.store h (addr + i) init
  done;
  if size > len + 1 then Heap.store h (addr + len + 1) (header ~len:0 ~code:code_pad);
  Word.typed_ptr addr

let[@inline] typed_code h w =
  assert (Word.is_typed_ptr w);
  header_code (Heap.load h (Word.addr w))

let[@inline] typed_len h w =
  assert (Word.is_typed_ptr w);
  header_len (Heap.load h (Word.addr w))

let has_code h w code = Word.is_typed_ptr w && typed_code h w = code

let[@inline] field h w i =
  assert (Word.is_typed_ptr w);
  assert (i >= 0 && i < typed_len h w);
  Heap.load h (Word.addr w + 1 + i)

let[@inline] set_field h w i v =
  assert (Word.is_typed_ptr w);
  assert (i >= 0 && i < typed_len h w);
  let addr = Word.addr w + 1 + i in
  Heap.store h addr v;
  Heap.note_mutation h ~addr ~value:v

(* Field store for data-space objects: no pointers, no barrier needed. *)
let set_raw_field h w i v =
  assert (Word.is_typed_ptr w);
  assert (i >= 0 && i < typed_len h w);
  Heap.store h (Word.addr w + 1 + i) v

(* ------------------------------------------------------------------ *)
(* Vectors                                                             *)

let make_vector h ~len ~init = make_typed h ~code:code_vector ~len ~init ()
let is_vector h w = has_code h w code_vector

let vector_length h w =
  assert (is_vector h w);
  typed_len h w

let vector_ref = field
let vector_set = set_field

let vector_of_list h ws =
  let v = make_vector h ~len:(List.length ws) ~init:Word.nil in
  List.iteri (fun i w -> vector_set h v i w) ws;
  v

(* ------------------------------------------------------------------ *)
(* Strings (data space, one character per word)                        *)

let make_string h ~len ~fill =
  make_typed h ~code:code_string ~data:true ~len ~init:(Word.of_char fill) ()

let is_string h w = has_code h w code_string

let string_length h w =
  assert (is_string h w);
  typed_len h w

let string_ref h w i = Word.to_char (field h w i)
let string_set h w i c = set_raw_field h w i (Word.of_char c)

let string_of_ocaml h s =
  let len = String.length s in
  let w = make_string h ~len ~fill:' ' in
  String.iteri (fun i c -> string_set h w i c) s;
  w

let string_to_ocaml h w =
  let len = string_length h w in
  String.init len (fun i -> string_ref h w i)

(* ------------------------------------------------------------------ *)
(* Bytevectors (data space, one byte per word)                         *)

let make_bytevector h ~len ~fill =
  make_typed h ~code:code_bytevector ~data:true ~len ~init:(Word.of_fixnum fill) ()

let is_bytevector h w = has_code h w code_bytevector

let bytevector_length h w =
  assert (is_bytevector h w);
  typed_len h w

let bytevector_ref h w i = Word.to_fixnum (field h w i)

let bytevector_set h w i b =
  assert (b >= 0 && b < 256);
  set_raw_field h w i (Word.of_fixnum b)

(* ------------------------------------------------------------------ *)
(* Boxes                                                               *)

let make_box h v = make_typed h ~code:code_box ~len:1 ~init:v ()
let is_box h w = has_code h w code_box
let box_ref h w = field h w 0
let box_set h w v = set_field h w 0 v

(* ------------------------------------------------------------------ *)
(* Flonums (data space; IEEE bits split across two words)              *)

let make_flonum h f =
  let bits = Int64.bits_of_float f in
  let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let w = make_typed h ~code:code_flonum ~data:true ~len:2 ~init:(Word.of_fixnum 0) () in
  set_raw_field h w 0 (Word.of_fixnum lo);
  set_raw_field h w 1 (Word.of_fixnum hi);
  w

let is_flonum h w = has_code h w code_flonum

let flonum_value h w =
  let lo = Int64.of_int (Word.to_fixnum (field h w 0)) in
  let hi = Int64.of_int (Word.to_fixnum (field h w 1)) in
  Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)

(* ------------------------------------------------------------------ *)
(* Symbols: [name] string + a mutable slot for the global-variable cell
   index used by the Scheme VM (-1 when unbound).                      *)

let make_symbol h ~name =
  let w = make_typed h ~code:code_symbol ~len:2 ~init:Word.nil () in
  set_field h w 0 name;
  set_field h w 1 (Word.of_fixnum (-1));
  w

let is_symbol h w = has_code h w code_symbol
let symbol_name h w = field h w 0
let symbol_name_string h w = string_to_ocaml h (symbol_name h w)
let symbol_global h w = Word.to_fixnum (field h w 1)
let symbol_set_global h w i = set_field h w 1 (Word.of_fixnum i)

(* ------------------------------------------------------------------ *)
(* Records: field 0 is a tag word, the rest are payload. *)

let make_record h ~tag ~len ~init =
  let w = make_typed h ~code:code_record ~len:(len + 1) ~init () in
  set_field h w 0 tag;
  w

let is_record h w = has_code h w code_record
let record_tag h w = field h w 0
let record_length h w = typed_len h w - 1
let record_ref h w i = field h w (i + 1)
let record_set h w i v = set_field h w (i + 1) v

(* ------------------------------------------------------------------ *)
(* Lists                                                               *)

let rec list_of h ws = match ws with [] -> Word.nil | w :: rest -> cons h w (list_of h rest)

let rec to_list h w =
  if Word.is_nil w then []
  else begin
    assert (Word.is_pair_ptr w);
    car h w :: to_list h (cdr h w)
  end

let list_length h w =
  let rec loop w n = if Word.is_nil w then n else loop (cdr h w) (n + 1) in
  loop w 0

(* ------------------------------------------------------------------ *)
(* Eq hashing: identity on words.  Address-based for pointers, hence
   unstable across collections — the instability the paper's transport
   guardians exist to manage. *)

let eq_hash (w : Word.t) = w land max_int
