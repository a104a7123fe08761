(* The Scheme lexer, reader and printer. *)

open Gbc_scheme

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let roundtrip src = Sexpr.to_string (Reader.read_one src)

let test_atoms () =
  check_str "int" "42" (roundtrip "42");
  check_str "negative" "-7" (roundtrip "-7");
  check_str "symbol" "foo" (roundtrip "foo");
  check_str "weird symbol" "set-car!" (roundtrip "set-car!");
  check_str "true" "#t" (roundtrip "#t");
  check_str "false" "#f" (roundtrip "#f");
  check_str "string" "\"hi\"" (roundtrip "\"hi\"");
  check_str "escape" "\"a\\nb\"" (roundtrip "\"a\\nb\"");
  check_str "char" "#\\a" (roundtrip "#\\a");
  check_str "space char" "#\\space" (roundtrip "#\\space");
  check_str "newline char" "#\\newline" (roundtrip "#\\newline");
  check_str "float" "3.14" (roundtrip "3.14")

let test_lists () =
  check_str "flat" "(1 2 3)" (roundtrip "(1 2 3)");
  check_str "nested" "(1 (2 3) 4)" (roundtrip "( 1 ( 2 3 ) 4 )");
  check_str "dotted" "(1 . 2)" (roundtrip "(1 . 2)");
  check_str "improper" "(1 2 . 3)" (roundtrip "(1 2 . 3)");
  check_str "empty" "()" (roundtrip "()");
  check_str "brackets" "(let ((x 1)) x)" (roundtrip "(let ([x 1]) x)")

let test_quote_sugar () =
  check_str "quote" "(quote x)" (roundtrip "'x");
  check_str "quoted list" "(quote (1 2))" (roundtrip "'(1 2)");
  check_str "nested quote" "(quote (quote x))" (roundtrip "''x");
  check_str "quasiquote" "(quasiquote x)" (roundtrip "`x");
  check_str "unquote" "(unquote x)" (roundtrip ",x");
  check_str "splice" "(unquote-splicing x)" (roundtrip ",@x")

let test_vectors () =
  check_str "vector" "#(1 2 3)" (roundtrip "#(1 2 3)");
  check_str "nested vector" "#(1 (2) #(3))" (roundtrip "#(1 (2) #(3))")

let test_comments_and_whitespace () =
  check_str "line comment" "(1 2)" (roundtrip "(1 ; comment\n 2)");
  check_str "leading" "x" (roundtrip "  \n\t ; hello\n x");
  Alcotest.(check int) "read_all skips comments" 2
    (List.length (Reader.read_all "; one\n1 ; two\n2 ; trailing"))

let test_errors () =
  let fails src =
    match Reader.read_all src with
    | exception Reader.Error _ -> true
    | _ -> false
  in
  check "unbalanced" true (fails "(1 2");
  check "stray paren" true (fails ")");
  check "stray dot" true (fails ".");
  check "bad dotted" true (fails "(1 . 2 3)");
  check "unterminated string" true (fails "\"abc");
  check "bad char" true (fails "#\\notachar")

(* Integers outside the 62-bit fixnum range read as flonums; the range
   ends stay exact integers. *)
let test_big_integers () =
  let reads_as src expected =
    check src true (Reader.read_one src = expected)
  in
  reads_as "3000000000000000000" (Sexpr.Float 3e18);
  reads_as "2305843009213693952" (Sexpr.Float 2305843009213693952.);
  reads_as "-4611686018427387904" (Sexpr.Float (-4611686018427387904.));
  reads_as "99999999999999999999" (Sexpr.Float 1e20);
  reads_as "-99999999999999999999" (Sexpr.Float (-1e20));
  reads_as "2305843009213693951" (Sexpr.Int Gbc_runtime.Word.fixnum_max);
  reads_as "-2305843009213693952" (Sexpr.Int Gbc_runtime.Word.fixnum_min);
  reads_as "nan" (Sexpr.Sym "nan")

let test_read_all () =
  let forms = Reader.read_all "(define x 1) (define y 2) (+ x y)" in
  Alcotest.(check int) "three forms" 3 (List.length forms)

(* Printer on heap values (shared structure handled). *)
let test_heap_printer () =
  let open Gbc_runtime in
  let h = Heap.create () in
  let p = Obj.cons h (Word.of_fixnum 1) (Obj.cons h (Word.of_fixnum 2) Word.nil) in
  check_str "list" "(1 2)" (Printer.to_string h p);
  let shared = Obj.cons h (Word.of_fixnum 9) Word.nil in
  let two = Obj.cons h shared (Obj.cons h shared Word.nil) in
  check_str "shared labels" "(#0=(9) #0#)" (Printer.to_string h two);
  let s = Obj.string_of_ocaml h "hi" in
  check_str "write string" "\"hi\"" (Printer.to_string h s);
  check_str "display string" "hi" (Printer.to_string ~display:true h s);
  check_str "char write" "#\\a" (Printer.to_string h (Word.of_char 'a'));
  check_str "char display" "a" (Printer.to_string ~display:true h (Word.of_char 'a'));
  let wp = Obj.weak_cons h (Word.of_fixnum 1) Word.nil in
  check_str "weak pair" "#<weak (1)>" (Printer.to_string h wp);
  let v = Obj.vector_of_list h [ Word.of_fixnum 1; Word.true_ ] in
  check_str "vector" "#(1 #t)" (Printer.to_string h v)

(* Property: reader/printer round-trip on generated data. *)
let sexpr_gen =
  let open QCheck.Gen in
  sized
    (fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> Sexpr.Int i) small_signed_int;
               map (fun b -> Sexpr.Bool b) bool;
               return Sexpr.Null;
               map
                 (fun s -> Sexpr.Sym ("s" ^ string_of_int (abs s)))
                 small_signed_int;
             ]
         else
           frequency
             [
               (2, map2 (fun a b -> Sexpr.Pair (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun l -> Sexpr.Vector (Array.of_list l)) (list_size (int_bound 4) (self (n / 3))));
               (1, map (fun i -> Sexpr.Int i) small_signed_int);
             ]))

let prop_print_read_roundtrip =
  QCheck.Test.make ~name:"print/read roundtrip" ~count:200 (QCheck.make sexpr_gen)
    (fun d ->
      let s = Sexpr.to_string d in
      Sexpr.to_string (Reader.read_one s) = s)

let () =
  Alcotest.run "scheme_reader"
    [
      ( "reader",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "lists" `Quick test_lists;
          Alcotest.test_case "quote sugar" `Quick test_quote_sugar;
          Alcotest.test_case "vectors" `Quick test_vectors;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "read_all" `Quick test_read_all;
          Alcotest.test_case "big integers" `Quick test_big_integers;
        ] );
      ("printer", [ Alcotest.test_case "heap values" `Quick test_heap_printer ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_print_read_roundtrip ]);
    ]
