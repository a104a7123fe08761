(* Tagging invariants of Word: every class of word is correctly classified
   and round-trips. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let classify w =
  [
    Word.is_fixnum w;
    Word.is_pair_ptr w;
    Word.is_typed_ptr w;
    Word.is_imm w;
  ]

let exactly_one w =
  List.length (List.filter Fun.id (classify w)) = 1

let test_fixnum_roundtrip () =
  List.iter
    (fun n ->
      let w = Word.of_fixnum n in
      check "fixnum class" true (Word.is_fixnum w);
      check_int "roundtrip" n (Word.to_fixnum w))
    [ 0; 1; -1; 42; -42; Word.fixnum_max; Word.fixnum_min ]

(* An exact product is returned as is; one that wraps an OCaml int comes
   back outside the fixnum range, never as a wrapped value inside it. *)
let test_mul_exact () =
  let fixnum n = n >= Word.fixnum_min && n <= Word.fixnum_max in
  check_int "exact" (-42) (Word.mul_exact 6 (-7));
  check_int "zero" 0 (Word.mul_exact 0 Word.fixnum_max);
  check "wrapping product" false (fixnum (Word.mul_exact 4611686018427387 1_000_000_000_000));
  check "square of max" false (fixnum (Word.mul_exact Word.fixnum_max Word.fixnum_max));
  check "min times -1" false (fixnum (Word.mul_exact Word.fixnum_min (-1)))

let test_char_roundtrip () =
  for c = 0 to 255 do
    let ch = Char.chr c in
    let w = Word.of_char ch in
    check "char class" true (Word.is_char w);
    check "imm class" true (Word.is_imm w);
    Alcotest.(check char) "roundtrip" ch (Word.to_char w)
  done

let test_immediates_distinct () =
  let imms = [ Word.nil; Word.false_; Word.true_; Word.eof; Word.void; Word.unbound; Word.forward_marker ] in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter (fun (a, b) -> check "distinct" false (Word.equal a b)) (pairs imms);
  List.iter (fun w -> check "exactly one class" true (exactly_one w)) imms

let test_pointer_tags () =
  List.iter
    (fun addr ->
      let p = Word.pair_ptr addr in
      check "pair class" true (Word.is_pair_ptr p);
      check "pointer" true (Word.is_pointer p);
      check_int "addr" addr (Word.addr p);
      let t = Word.typed_ptr addr in
      check "typed class" true (Word.is_typed_ptr t);
      check_int "addr" addr (Word.addr t);
      check "classes disjoint" false (Word.equal p t);
      check "one class p" true (exactly_one p);
      check "one class t" true (exactly_one t))
    [ 0; 1; 512; 1 lsl 20; (37 lsl 20) lor 123 ]

let test_with_addr_preserves_tag () =
  let p = Word.pair_ptr 100 in
  let p' = Word.with_addr p 200 in
  check "still pair" true (Word.is_pair_ptr p');
  check_int "new addr" 200 (Word.addr p');
  let t = Word.typed_ptr 100 in
  let t' = Word.with_addr t 300 in
  check "still typed" true (Word.is_typed_ptr t');
  check_int "new addr" 300 (Word.addr t')

let test_truthiness () =
  check "false is falsy" false (Word.truthy Word.false_);
  check "nil is truthy" true (Word.truthy Word.nil);
  check "0 is truthy" true (Word.truthy (Word.of_fixnum 0));
  check "true is truthy" true (Word.truthy Word.true_)

let test_immediates_not_pointers () =
  List.iter
    (fun w -> check "not pointer" false (Word.is_pointer w))
    [ Word.nil; Word.false_; Word.true_; Word.eof; Word.void; Word.of_char 'x'; Word.of_fixnum 7 ]

(* Property: classification is total and exclusive for generated words. *)
let prop_fixnum_class =
  QCheck.Test.make ~name:"fixnum words classify uniquely" ~count:1000
    QCheck.(int_range Word.fixnum_min Word.fixnum_max)
    (fun n -> exactly_one (Word.of_fixnum n))

let prop_pair_class =
  QCheck.Test.make ~name:"pair pointers classify uniquely" ~count:1000
    QCheck.(int_bound ((1 lsl 40) - 1))
    (fun addr ->
      let w = Word.pair_ptr addr in
      exactly_one w && Word.addr w = addr)

let prop_char_payload =
  QCheck.Test.make ~name:"char payload isolated" ~count:256 QCheck.(int_bound 255)
    (fun c ->
      let w = Word.of_char (Char.chr c) in
      Word.imm_code w = Word.code_char && Char.code (Word.to_char w) = c)

let () =
  Alcotest.run "word"
    [
      ( "tagging",
        [
          Alcotest.test_case "fixnum roundtrip" `Quick test_fixnum_roundtrip;
          Alcotest.test_case "mul_exact" `Quick test_mul_exact;
          Alcotest.test_case "char roundtrip" `Quick test_char_roundtrip;
          Alcotest.test_case "immediates distinct" `Quick test_immediates_distinct;
          Alcotest.test_case "pointer tags" `Quick test_pointer_tags;
          Alcotest.test_case "with_addr" `Quick test_with_addr_preserves_tag;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          Alcotest.test_case "immediates not pointers" `Quick test_immediates_not_pointers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fixnum_class; prop_pair_class; prop_char_payload ] );
    ]
