(* Language semantics of the Scheme system: special forms, closures, tail
   calls, assignment, the numeric tower, library procedures, ports, and
   error behaviour. *)

open Gbc_runtime
open Gbc_scheme

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let m = lazy (Scheme.create ())

let ev src = Scheme.eval (Lazy.force m) src

let t name src expected =
  Alcotest.test_case name `Quick (fun () -> check_str src expected (ev src))

let fails name src =
  Alcotest.test_case name `Quick (fun () ->
      match ev src with
      | exception Machine.Error _ -> ()
      | exception Compile.Error _ -> ()
      | v -> Alcotest.failf "expected error, got %s" v)

(* The message of the Scheme error [src] raises on the shared machine. *)
let fails_with name src msg =
  Alcotest.test_case name `Quick (fun () ->
      match ev src with
      | exception Machine.Error got -> check_str src msg got
      | v -> Alcotest.failf "%s: expected an error, got %s" src v)

(* An alist of (symbol . fixnum) pairs read back from the heap. *)
let read_alist h w =
  List.map
    (fun p -> (Printer.to_string h (Obj.car h p), Word.to_fixnum (Obj.cdr h p)))
    (Obj.to_list h w)

let basics =
  [
    t "int" "42" "42";
    t "negative" "-5" "-5";
    t "bool" "#t" "#t";
    t "char" "#\\z" "#\\z";
    t "string" "\"hi\"" "\"hi\"";
    t "quote" "'(a b)" "(a b)";
    t "quote dotted" "'(a . b)" "(a . b)";
    t "vector literal" "'#(1 2)" "#(1 2)";
    t "float" "2.5" "2.5";
    t "if true" "(if #t 1 2)" "1";
    t "if false" "(if #f 1 2)" "2";
    t "if one-armed" "(if #f 1)" "#f";
    t "truthiness of 0" "(if 0 'yes 'no)" "yes";
    t "truthiness of nil" "(if '() 'yes 'no)" "yes";
    t "begin" "(begin 1 2 3)" "3";
  ]

let arithmetic =
  [
    t "add" "(+ 1 2 3 4)" "10";
    t "add none" "(+)" "0";
    t "sub" "(- 10 3 2)" "5";
    t "neg" "(- 5)" "-5";
    t "mul" "(* 2 3 4)" "24";
    t "quotient" "(quotient 17 5)" "3";
    t "remainder" "(remainder 17 5)" "2";
    t "modulo neg" "(modulo -7 3)" "2";
    t "remainder neg" "(remainder -7 3)" "-1";
    t "lt chain" "(< 1 2 3)" "#t";
    t "lt chain false" "(< 1 3 2)" "#f";
    t "eq nums" "(= 2 2 2)" "#t";
    t "zero?" "(zero? 0)" "#t";
    t "float add" "(+ 1.5 2.5)" "4.";
    t "mixed" "(* 2 1.5)" "3.";
    t "float div" "(/ 1.0 4)" "0.25";
    t "int div" "(/ 7 2)" "3";
    t "char->integer" "(char->integer #\\A)" "65";
    t "integer->char" "(integer->char 97)" "#\\a";
    t "number->string" "(number->string 42)" "\"42\"";
    t "abs" "(abs -3)" "3";
    t "min/max" "(list (min 1 2) (max 1 2))" "(1 2)";
    t "even/odd" "(list (even? 4) (odd? 4))" "(#t #f)";
    fails "div by zero" "(/ 1 0)";
    fails "add non-number" "(+ 1 'a)";
  ]

let bindings =
  [
    t "let" "(let ([x 1] [y 2]) (+ x y))" "3";
    t "let shadows" "(let ([x 1]) (let ([x 2]) x))" "2";
    t "let*" "(let* ([x 1] [y (+ x 1)]) y)" "2";
    t "letrec" "(letrec ([e? (lambda (n) (if (zero? n) #t (o? (- n 1))))] [o? (lambda (n) (if (zero? n) #f (e? (- n 1))))]) (e? 10))" "#t";
    t "named let" "(let f ([n 5] [acc 1]) (if (zero? n) acc (f (- n 1) (* acc n))))" "120";
    t "define/use" "(define forty 40) (+ forty 2)" "42";
    t "set! global" "(define gv 1) (set! gv 9) gv" "9";
    t "set! local" "(let ([x 1]) (set! x 5) x)" "5";
    t "closure capture" "(define (adder n) (lambda (x) (+ x n))) ((adder 3) 4)" "7";
    t "shared mutable capture"
      "(define (counter) (let ([n 0]) (lambda () (set! n (+ n 1)) n))) (define c1 (counter)) (c1) (c1) (c1)"
      "3";
    t "two counters independent"
      "(define ca (counter)) (define cb (counter)) (ca) (ca) (cb) (list (ca) (cb))" "(3 2)";
    t "internal define" "(define (g x) (define y 10) (+ x y)) (g 5)" "15";
    t "internal define fn" "(define (h x) (define (dbl v) (* 2 v)) (dbl x)) (h 21)" "42";
    fails "unbound" "this-is-unbound";
    fails "set! unbound" "(set! never-defined 1)";
  ]

let control =
  [
    t "cond" "(cond [#f 1] [#t 2] [else 3])" "2";
    t "cond else" "(cond [#f 1] [else 3])" "3";
    t "cond test-only" "(cond [#f] [42] [else 1])" "42";
    t "cond empty" "(cond [#f 1])" "#f";
    t "case" "(case (+ 1 1) [(1) 'one] [(2) 'two] [else 'many])" "two";
    t "case else" "(case 9 [(1) 'one] [else 'many])" "many";
    t "and" "(and 1 2 3)" "3";
    t "and short" "(and 1 #f (error \"not reached\"))" "#f";
    t "and empty" "(and)" "#t";
    t "or" "(or #f #f 3)" "3";
    t "or short" "(or 2 (error \"not reached\"))" "2";
    t "or empty" "(or)" "#f";
    t "when" "(when (= 1 1) 'a 'b)" "b";
    t "when false" "(when #f 'x)" "#f";
    t "unless" "(unless (= 1 2) 'ok)" "ok";
    t "do loop" "(do ([i 0 (+ i 1)] [acc '() (cons i acc)]) ((= i 3) acc))" "(2 1 0)";
    t "deep tail recursion"
      "(define (count n) (if (zero? n) 'done (count (- n 1)))) (count 100000)" "done";
    t "mutual tail recursion"
      "(define (pp n) (if (zero? n) 'even (qq (- n 1)))) (define (qq n) (if (zero? n) 'odd (pp (- n 1)))) (pp 99999)"
      "odd";
  ]

let procedures =
  [
    t "lambda rest" "((lambda args args) 1 2 3)" "(1 2 3)";
    t "lambda req+rest" "((lambda (a . rest) (cons a rest)) 1 2 3)" "(1 2 3)";
    t "case-lambda dispatch"
      "(define cl (case-lambda [() 0] [(a) 1] [(a b) 2] [(a b . r) 'many])) (list (cl) (cl 'x) (cl 'x 'y) (cl 1 2 3 4))"
      "(0 1 2 many)";
    t "apply" "(apply + '(1 2 3))" "6";
    t "apply spread" "(apply list 1 2 '(3 4))" "(1 2 3 4)";
    t "procedure?" "(list (procedure? car) (procedure? (lambda (x) x)) (procedure? 5))"
      "(#t #t #f)";
    t "higher order" "(map (lambda (f) (f 10)) (list 1+ 1- (lambda (x) (* x x))))" "(11 9 100)";
    fails "too few args" "((lambda (a b) a) 1)";
    fails "apply non-proc" "(5 6)";
    fails "case-lambda no clause" "((case-lambda [(a) a]) 1 2)";
  ]

let data =
  [
    t "cons/car/cdr" "(car (cons 1 2))" "1";
    t "set-car!" "(define pr (cons 1 2)) (set-car! pr 9) pr" "(9 . 2)";
    t "set-cdr! cycle" "(define cy (list 1)) (set-cdr! cy cy) (car (cdr (cdr cy)))" "1";
    t "list ops" "(list (length '(a b c)) (reverse '(1 2 3)) (append '(1) '(2) '(3)))"
      "(3 (3 2 1) (1 2 3))";
    t "memq" "(memq 'c '(a b c d))" "(c d)";
    t "memv" "(memv 2 '(1 2 3))" "(2 3)";
    t "member" "(member \"b\" '(\"a\" \"b\"))" "(\"b\")";
    t "assq" "(assq 'b '((a 1) (b 2)))" "(b 2)";
    t "remq" "(remq 'b '(a b c b))" "(a c)";
    t "filter" "(filter even? '(1 2 3 4 5 6))" "(2 4 6)";
    t "fold-left" "(fold-left + 0 '(1 2 3 4))" "10";
    t "iota" "(iota 5)" "(0 1 2 3 4)";
    t "map 2-list" "(map + '(1 2 3) '(10 20 30))" "(11 22 33)";
    t "list-ref" "(list-ref '(a b c) 2)" "c";
    t "eq? symbols" "(eq? 'a 'a)" "#t";
    t "eq? fresh pairs" "(eq? (cons 1 2) (cons 1 2))" "#f";
    t "eqv? numbers" "(eqv? 100000 100000)" "#t";
    t "equal? deep" "(equal? '(1 (2 #(3))) '(1 (2 #(3))))" "#t";
    t "equal? strings" "(equal? \"ab\" \"ab\")" "#t";
    t "vectors" "(define v (make-vector 3 'x)) (vector-set! v 1 'y) (vector->list v)" "(x y x)";
    t "vector fn" "(vector 1 2 3)" "#(1 2 3)";
    t "list->vector" "(list->vector '(1 2))" "#(1 2)";
    t "strings" "(string-append \"foo\" \"bar\")" "\"foobar\"";
    t "string ops" "(list (string-length \"abc\") (string-ref \"abc\" 1))" "(3 #\\b)";
    t "substring" "(substring \"hello\" 1 3)" "\"el\"";
    t "symbol<->string" "(string->symbol (symbol->string 'hello))" "hello";
    t "boxes" "(define bx (box 1)) (set-box! bx 2) (unbox bx)" "2";
    t "predicates" "(list (pair? '(1)) (pair? '()) (null? '()) (symbol? 'a) (string? \"s\") (char? #\\a) (vector? '#(1)))"
      "(#t #f #t #t #t #t #t)";
    fails "car of non-pair" "(car 5)";
    fails "vector-ref range" "(vector-ref (make-vector 2) 5)";
  ]

let continuations =
  [
    t "call/cc unused" "(+ 1 (call/cc (lambda (k) 10)))" "11";
    t "call/cc escape" "(+ 1 (call/cc (lambda (k) (k 10) 99)))" "11";
    t "long name" "(call-with-current-continuation (lambda (k) (k 'ok)))" "ok";
    t "escape from map"
      "(call/cc (lambda (ret) (map (lambda (x) (if (= x 3) (ret 'three) x)) '(1 2 3 4))))"
      "three";
    t "early exit helper"
      "(define (find-first pred l)\n\
      \  (call/cc (lambda (return)\n\
      \    (for-each (lambda (x) (when (pred x) (return x))) l)\n\
      \    'not-found)))\n\
       (list (find-first even? '(1 3 4 5)) (find-first even? '(1 3 5)))"
      "(4 not-found)";
    t "re-entrant loop in one form"
      "(define trip 0)\n\
       (let ([k+v (call/cc (lambda (k) (cons k 0)))])\n\
      \  (set! trip (+ trip 1))\n\
      \  (if (< (cdr k+v) 3)\n\
      \      ((car k+v) (cons (car k+v) (+ (cdr k+v) 1)))\n\
      \      (list 'value (cdr k+v) 'trips trip)))"
      "(value 3 trips 4)";
    t "continuation is a procedure" "(call/cc procedure?)" "#t";
    t "tail call/cc"
      "(define (f) (call/cc (lambda (k) (k 42))))\n(f)" "42";
    t "generator ping-pong"
      "(define (make-gen lst)\n\
      \  (define return #f)\n\
      \  (define (next)\n\
      \    (call/cc (lambda (r) (set! return r) (resume 'go))))\n\
      \  (define resume\n\
      \    (lambda (ignored)\n\
      \      (for-each (lambda (x) (call/cc (lambda (k) (set! resume k) (return x)))) lst)\n\
      \      (return 'done)))\n\
      \  next)\n\
       (define gen (make-gen '(a b c)))\n\
       (list (gen) (gen) (gen) (gen))"
      "(a b c done)";
    t "continuation survives gc"
      "(define kk #f)\n\
       (define out (+ 1000 (call/cc (lambda (k) (set! kk k) 0))))\n\
       (collect 4)\n\
       out"
      "1000";
    fails "wrong arity to continuation" "(call/cc (lambda (k) (k 1 2)))";
    t "dynamic-wind normal"
      "(define dwl '()) (define (dwn x) (set! dwl (cons x dwl)))\n\
       (dynamic-wind (lambda () (dwn 'in)) (lambda () (dwn 'body) 'r) (lambda () (dwn 'out)))\n\
       (reverse dwl)"
      "(in body out)";
    t "dynamic-wind escape runs after"
      "(define dwl2 '()) (define (dwn2 x) (set! dwl2 (cons x dwl2)))\n\
       (call/cc (lambda (escape)\n\
      \  (dynamic-wind (lambda () (dwn2 'in))\n\
      \                (lambda () (dwn2 'body) (escape 'gone) (dwn2 'unreached))\n\
      \                (lambda () (dwn2 'out)))))\n\
       (reverse dwl2)"
      "(in body out)";
    t "dynamic-wind re-entry rewinds"
      "(define dwl3 '()) (define (dwn3 x) (set! dwl3 (cons x dwl3)))\n\
       (define kdw #f) (define ndw 0)\n\
       (dynamic-wind\n\
      \  (lambda () (dwn3 'in))\n\
      \  (lambda () (call/cc (lambda (k) (set! kdw k))) (set! ndw (+ ndw 1)) (dwn3 (cons 'body ndw)))\n\
      \  (lambda () (dwn3 'out)))\n\
       (when (< ndw 2) (kdw 'again))\n\
       (reverse dwl3)"
      "(in (body . 1) out in (body . 2) out)";
    t "nested winds unwind in order"
      "(define dwl4 '()) (define (dwn4 x) (set! dwl4 (cons x dwl4)))\n\
       (call/cc (lambda (escape)\n\
      \  (dynamic-wind (lambda () (dwn4 'in1)) (lambda ()\n\
      \    (dynamic-wind (lambda () (dwn4 'in2)) (lambda () (escape 'x))\n\
      \                  (lambda () (dwn4 'out2))))\n\
      \    (lambda () (dwn4 'out1)))))\n\
       (reverse dwl4)"
      "(in1 in2 out2 out1)";
    t "call-with-output-file closes on exit"
      "(call-with-output-file \"cwof.txt\" (lambda (p) (display '(1 2) p)))\n\
       (call-with-input-file \"cwof.txt\" (lambda (p) (read p)))"
      "(1 2)";
    t "call-with-output-file closes on escape"
      "(call/cc (lambda (esc)\n\
      \  (call-with-output-file \"cwof2.txt\" (lambda (p) (display 'partial p) (esc 'out)))))\n\
       (call-with-input-file \"cwof2.txt\" (lambda (p) (read p)))"
      "partial";
  ]

let quasiquote =
  [
    t "plain" "`(1 2 3)" "(1 2 3)";
    t "unquote" "(let ([x 5]) `(a ,x b))" "(a 5 b)";
    t "splice" "`(1 ,@(list 2 3) 4)" "(1 2 3 4)";
    t "splice end" "`(1 ,@(list 2 3))" "(1 2 3)";
    t "nested structure" "(let ([x 1]) `((,x) #(,x ,(+ x 1))))" "((1) #(1 2))";
    t "nested quasiquote" "`(a `(b ,(c)))" "(a (quasiquote (b (unquote (c)))))";
    t "double depth unquote" "(let ([x 9]) `(a `(b ,,x)))" "(a (quasiquote (b (unquote 9))))";
    t "atom" "`x" "x";
    fails "unquote outside" ",x";
  ]

let reading =
  [
    Alcotest.test_case "read from port" `Quick (fun () ->
        let mach = Lazy.force m in
        ignore
          (Machine.eval_string mach
             "(define rp-out (open-output-file \"data.scm\"))\n\
              (display \"(1 two \\\"three\\\") 42 final\" rp-out)\n\
              (close-output-port rp-out)\n\
              (define rp (open-input-file \"data.scm\"))");
        check_str "datum 1" "(1 two \"three\")" (ev "(read rp)");
        check_str "datum 2" "42" (ev "(read rp)");
        check_str "datum 3" "final" (ev "(read rp)");
        check_str "eof" "#t" (ev "(eof-object? (read rp))");
        ignore (ev "(close-input-port rp)"));
    Alcotest.test_case "peek-char does not consume" `Quick (fun () ->
        let mach = Lazy.force m in
        ignore
          (Machine.eval_string mach
             "(define pk-out (open-output-file \"pk.txt\"))\n\
              (display \"xy\" pk-out) (close-output-port pk-out)\n\
              (define pk (open-input-file \"pk.txt\"))");
        check_str "peek" "#\\x" (ev "(peek-char pk)");
        check_str "peek again" "#\\x" (ev "(peek-char pk)");
        check_str "read" "#\\x" (ev "(read-char pk)");
        check_str "next" "#\\y" (ev "(read-char pk)");
        check_str "peek eof" "#t" (ev "(eof-object? (peek-char pk))"));
  ]

let extended_prims =
  [
    t "char=?" "(char=? #\\a #\\a)" "#t";
    t "char<?" "(char<? #\\a #\\b)" "#t";
    t "char-upcase" "(char-upcase #\\a)" "#\\A";
    t "char-alphabetic?" "(list (char-alphabetic? #\\a) (char-alphabetic? #\\1))" "(#t #f)";
    t "char-numeric?" "(char-numeric? #\\7)" "#t";
    t "char-whitespace?" "(char-whitespace? #\\space)" "#t";
    t "string<?" "(string<? \"abc\" \"abd\")" "#t";
    t "string-copy distinct" "(let* ([s \"abc\"] [c (string-copy s)]) (list (equal? s c) (eq? s c)))" "(#t #f)";
    t "string->list" "(string->list \"abc\")" "(#\\a #\\b #\\c)";
    t "list->string" "(list->string '(#\\h #\\i))" "\"hi\"";
    t "string->number int" "(string->number \"42\")" "42";
    t "string->number float" "(string->number \"2.5\")" "2.5";
    t "string->number bad" "(string->number \"nope\")" "#f";
    t "string->number nan" "(string->number \"nan\")" "#f";
    t "string fn" "(string #\\a #\\b)" "\"ab\"";
    t "vector-fill!" "(let ([v (make-vector 3 0)]) (vector-fill! v 'x) v)" "#(x x x)";
    t "gensym distinct" "(eq? (gensym) (gensym))" "#f";
    t "sort" "(sort < '(5 2 8 1 9 3))" "(1 2 3 5 8 9)";
    t "sort stable strings" "(sort (lambda (a b) (< (string-length a) (string-length b))) '(\"bb\" \"a\" \"ccc\" \"dd\"))"
      "(\"a\" \"bb\" \"dd\" \"ccc\")";
    t "list-copy distinct" "(let* ([l '(1 2)] [c (list-copy l)]) (list (equal? l c) (eq? l c)))"
      "(#t #f)";
    t "last-pair" "(last-pair '(1 2 3))" "(3)";
    t "vector-map" "(vector-map (lambda (x) (* x x)) #(1 2 3))" "#(1 4 9)";
    t "string-join" "(string-join \", \" '(\"x\" \"y\" \"z\"))" "\"x, y, z\"";
    t "string ports write" "(write-to-string '(1 #\\a \"s\"))" "\"(1 #\\\\a \\\"s\\\")\"";
    t "string ports read" "(read-from-string \"(a (b c))\")" "(a (b c))";
    t "output string port"
      "(let ([p (open-output-string)]) (display 'hello p) (display \" \" p) (display 42 p) (get-output-string p))"
      "\"hello 42\"";
    t "input string port"
      "(let ([p (open-input-string \"xy\")]) (let* ([a (read-char p)] [b (read-char p)] [c (read-char p)]) (list a b (eof-object? c))))"
      "(#\\x #\\y #t)";
  ]

let records =
  [
    t "define-record-type basics"
      "(define-record-type point (make-point x y) point?\n\
      \  (x point-x set-point-x!) (y point-y))\n\
       (define rp (make-point 3 4))\n\
       (list (point? rp) (point? 5) (point-x rp) (point-y rp) (record? rp))"
      "(#t #f 3 4 #t)";
    t "record mutation" "(set-point-x! rp 9) (point-x rp)" "9";
    t "records survive gc" "(collect 4) (list (point-x rp) (point-y rp))" "(9 4)";
    t "missing ctor fields default to #f"
      "(define-record-type cell (make-cell a) cell? (a cell-a) (b cell-b set-cell-b!))\n\
       (define rc (make-cell 1))\n\
       (list (cell-a rc) (cell-b rc) (begin (set-cell-b! rc 2) (cell-b rc)))"
      "(1 #f 2)";
    t "distinct record types"
      "(define-record-type dot (make-dot v) dot? (v dot-v))\n\
       (list (point? (make-dot 1)) (dot? rp))"
      "(#f #f)";
    fails "wrong-type accessor" "(point-x (make-dot 1))";
    fails "accessor on non-record" "(point-x 42)";
  ]

let hashtables =
  [
    t "eq-hashtable across collections"
      "(define eht (make-eq-hashtable))\n\
       (define ek1 (cons 1 1)) (define ek2 'symk)\n\
       (hashtable-set! eht ek1 'one)\n\
       (hashtable-set! eht ek2 'two)\n\
       (collect 4) (collect 4)\n\
       (list (hashtable-ref eht ek1 'miss) (hashtable-ref eht ek2 'miss))"
      "(one two)";
    t "update" "(hashtable-set! eht ek1 'uno) (hashtable-ref eht ek1 'miss)" "uno";
    t "size/contains/delete"
      "(list (hashtable-size eht) (hashtable-contains? eht ek1)\n\
      \      (begin (hashtable-delete! eht ek1) (hashtable-contains? eht ek1))\n\
      \      (hashtable-size eht))"
      "(2 #t #f 1)";
    t "misses give default" "(hashtable-ref eht (cons 5 5) 'default)" "default";
    t "many keys, many collections"
      "(define ht2 (make-eq-hashtable))\n\
       (define keys (map (lambda (i) (cons i i)) (iota 100)))\n\
       (for-each (lambda (k) (hashtable-set! ht2 k (car k))) keys)\n\
       (collect 4)\n\
       (fold-left + 0 (map (lambda (k) (hashtable-ref ht2 k -1000)) keys))"
      "4950";
  ]

let gc_stress =
  [
    Alcotest.test_case "evaluation under constant collection" `Quick (fun () ->
        (* A machine whose collect trigger fires every ~512 words: every few
           VM calls cause a collection, exercising the stack/closure/consts
           scanners continuously. *)
        let open Gbc_runtime in
        let config = Config.v ~gen0_trigger_words:512 ~max_generation:3 () in
        let mach = Gbc_scheme.Scheme.create ~config () in
        let r =
          Gbc_scheme.Scheme.eval mach
            "(define (build n) (if (zero? n) '() (cons (vector n (number->string n)) (build (- n 1)))))\n\
             (define data (build 2000))\n\
             (define (checksum l)\n\
               (if (null? l) 0\n\
                   (+ (vector-ref (car l) 0)\n\
                      (string-length (vector-ref (car l) 1))\n\
                      (checksum (cdr l)))))\n\
             (checksum data)"
        in
        (* sum 1..500 + total digits *)
        let digits n = String.length (string_of_int n) in
        let expect =
          List.fold_left (fun a n -> a + n + digits n) 0 (List.init 2000 (fun i -> i + 1))
        in
        check_str "checksum" (string_of_int expect) r;
        check "many collections happened" true
          ((Heap.stats (Machine.heap mach)).Stats.total.Stats.collections > 10);
        Machine.dispose mach);
    Alcotest.test_case "closures survive collections" `Quick (fun () ->
        let open Gbc_runtime in
        let config = Config.v ~gen0_trigger_words:512 () in
        let mach = Gbc_scheme.Scheme.create ~config () in
        let r =
          Gbc_scheme.Scheme.eval mach
            "(define (make-adders n)\n\
               (if (zero? n) '() (cons (lambda (x) (+ x n)) (make-adders (- n 1)))))\n\
             (define adders (make-adders 100))\n\
             (fold-left + 0 (map (lambda (f) (f 1000)) adders))"
        in
        check_str "sum" (string_of_int ((100 * 1000) + (100 * 101 / 2))) r;
        Machine.dispose mach);
    Alcotest.test_case "guardians inside stressed machine" `Quick (fun () ->
        let open Gbc_runtime in
        let config = Config.v ~gen0_trigger_words:1024 ~max_generation:2 () in
        let mach = Gbc_scheme.Scheme.create ~config () in
        let r =
          Gbc_scheme.Scheme.eval mach
            "(define G (make-guardian))\n\
             (define (churn n)\n\
               (unless (zero? n)\n\
                 (G (cons n n))\n\
                 (churn (- n 1))))\n\
             (churn 200)\n\
             (collect 2) (collect 2)\n\
             (define (drain acc) (let ([x (G)]) (if x (drain (+ acc 1)) acc)))\n\
             (drain 0)"
        in
        check_str "all 200 recovered" "200" r;
        Machine.dispose mach);
  ]

let output =
  [
    Alcotest.test_case "display/write/newline" `Quick (fun () ->
        let out =
          Scheme.eval_output (Lazy.force m)
            "(display \"x=\") (display 42) (newline) (write #\\a) (write \"s\")"
        in
        check_str "console" "x=42\n#\\a\"s\"" out);
    Alcotest.test_case "ports from scheme" `Quick (fun () ->
        let mach = Lazy.force m in
        ignore
          (Machine.eval_string mach
             "(define po (open-output-file \"t.txt\"))\n              (display 'written po) (flush-output-port po) (close-output-port po)\n              (define pi (open-input-file \"t.txt\"))");
        check_str "read back" "#\\w" (ev "(read-char pi)");
        check_str "second" "#\\r" (ev "(read-char pi)");
        ignore (ev "(close-input-port pi)");
        check_str "eof detect" "#t"
          (ev "(define pj (open-input-file \"t.txt\")) (do ([c (read-char pj) (read-char pj)] [n 0 (+ n 1)]) ((eof-object? c) (= n 7)))"));
  ]

let gc_integration =
  [
    t "collect runs" "(begin (collect) (collect 2) 'ok)" "ok";
    t "gc-count positive" "(> (gc-count) 0)" "#t";
    t "eq-hash fixnum stable" "(= (eq-hash 42) (eq-hash 42))" "#t";
    t "data survives collections"
      "(define keepme (list 1 2 (vector 'a \"b\") (cons 3.5 #\\c))) (collect 4) (collect 4) keepme"
      "(1 2 #(a \"b\") (3.5 . #\\c))";
    t "deep structure survives"
      "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (define big (build 1000)) (collect 4) (length big)"
      "1000";
    t "allocation pressure triggers gc"
      "(define before (gc-count)) (let loop ([i 0]) (unless (= i 100000) (cons i i) (loop (+ i 1)))) (> (gc-count) before)"
      "#t";
    Alcotest.test_case "gc-counters is the Stats tables" `Quick (fun () ->
        let mach = Scheme.create () in
        let h = Machine.heap mach in
        (* The first call interns the names; the second allocates only its
           alist, two pairs per entry, after reading the counters. *)
        ignore (Scheme.eval mach "(collect) (gc-counters)");
        let got = read_alist h (Machine.eval_string mach "(gc-counters)") in
        let s = Heap.stats h in
        let want = Stats.to_list s.total @ Stats.session_to_list s in
        Alcotest.(check (list string)) "names" (List.map fst want) (List.map fst got);
        let own = 4 * List.length want in
        List.iter2
          (fun (name, v) (_, heap_v) ->
            let heap_v =
              if name = "words_allocated" || name = "words_allocated_since_gc" then heap_v - own
              else heap_v
            in
            Alcotest.(check int) name heap_v v)
          got want;
        Machine.dispose mach);
    Alcotest.test_case "gc-history is one alist per collection" `Quick (fun () ->
        let mach = Scheme.create () in
        let h = Machine.heap mach in
        (* Ends with a collection, so the final list call does not reach
           one at a safepoint. *)
        let r =
          Machine.eval_string mach
            "(collect) (collect 1) (collect 2)\n\
             (let loop ([i 0]) (unless (= i 100000) (cons i i) (loop (+ i 1))))\n\
             (collect)\n\
             (list (gc-count) (gc-history) (gc-counters))"
        in
        let count, hist, counters =
          match Obj.to_list h r with
          | [ c; hl; cs ] ->
              (Word.to_fixnum c, List.map (read_alist h) (Obj.to_list h hl), read_alist h cs)
          | _ -> Alcotest.fail "expected a three-element list"
        in
        check "at most the ring's 128 collections" true (count <= 128);
        Alcotest.(check int) "one entry per collection" count (List.length hist);
        List.iteri
          (fun i e ->
            Alcotest.(check (list string)) "entry keys"
              ([ "ordinal"; "generation"; "target"; "live_words" ]
              @ List.map fst (Stats.to_list (Stats.zero ())))
              (List.map fst e);
            Alcotest.(check int) "ordinals rise by 1" (i + 1) (List.assoc "ordinal" e);
            Alcotest.(check int) "one collection per entry" 1 (List.assoc "collections" e))
          hist;
        Alcotest.(check int) "words_copied sums to the lifetime counter"
          (List.assoc "words_copied" counters)
          (List.fold_left (fun a e -> a + List.assoc "words_copied" e) 0 hist);
        Machine.dispose mach);
    t "gc-phase-stats has one row per phase"
      "(map (lambda (r) (vector-ref r 0)) (gc-phase-stats))"
      ("(" ^ String.concat " " (List.map Telemetry.phase_name Telemetry.all_phases) ^ ")");
    t "pause-histogram counts every collection"
      "(collect) (= (apply + (map (lambda (b) (vector-ref b 2)) (pause-histogram))) (gc-count))"
      "#t";
    t "guardian-stats after three resurrections"
      "(define gs-g (make-guardian)) (gs-g (cons 1 2)) (gs-g (cons 3 4)) (gs-g (cons 5 6))\n\
       (collect 4)\n\
       (let ([s (guardian-stats gs-g)]) (list (vector-ref s 0) (vector-ref s 1) (vector-ref s 7)))"
      "(3 3 3)";
  ]

let errors =
  [
    t "with-error-handler catches" "(with-error-handler (lambda (m) 'caught) (lambda () (car 5)))"
      "caught";
    t "with-error-handler passthrough" "(with-error-handler (lambda (m) 'no) (lambda () 'ok))"
      "ok";
    t "handler receives message"
      "(with-error-handler (lambda (m) (string? m)) (lambda () (error \"boom\")))" "#t";
    t "machine usable after caught error"
      "(with-error-handler (lambda (m) 'x) (lambda () (vector-ref (vector) 5)))\n(+ 1 2)" "3";
    t "nested handlers"
      "(with-error-handler (lambda (m) 'outer)\n\
      \  (lambda ()\n\
      \    (with-error-handler (lambda (m) 'inner) (lambda () (car '())))))"
      "inner";
    t "error inside handler propagates to outer"
      "(with-error-handler (lambda (m) 'outer)\n\
      \  (lambda ()\n\
      \    (with-error-handler (lambda (m) (cdr 7)) (lambda () (car '())))))"
      "outer";
    t "failing cleanup does not stop others (paper design question)"
      "(define Ge (make-guardian)) (define ge-good 0)\n\
       (Ge (cons 'bad 1)) (Ge (cons 'good 2)) (Ge (cons 'good 3))\n\
       (collect 4)\n\
       (define (run-cleanups)\n\
      \  (let ([x (Ge)])\n\
      \    (when x\n\
      \      (with-error-handler (lambda (m) 'suppressed)\n\
      \        (lambda ()\n\
      \          (when (eq? (car x) 'bad) (error \"cleanup failed\"))\n\
      \          (set! ge-good (+ ge-good 1))))\n\
      \      (run-cleanups))))\n\
       (run-cleanups)\n\
       ge-good"
      "2";
    Alcotest.test_case "error primitive" `Quick (fun () ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
          loop 0
        in
        match ev "(error \"custom\" 'irritant 42)" with
        | exception Machine.Error msg -> check "message content" true (contains msg "custom")
        | v -> Alcotest.failf "expected error, got %s" v);
    Alcotest.test_case "machine recovers after error" `Quick (fun () ->
        let mach = Lazy.force m in
        (try ignore (Machine.eval_string mach "(car 5)") with Machine.Error _ -> Machine.reset mach);
        check_str "still works" "4" (ev "(+ 2 2)"));
  ]

(* Fixnums are 62-bit: [-2305843009213693952, 2305843009213693951].
   Leaving the range is a catchable Scheme error, on the two-fixnum fast
   path and on the generic path alike. *)
let fixnum_overflow =
  [
    fails_with "add past the maximum" "(+ 2305843009213693951 1)" "+: fixnum overflow";
    t "overflow is catchable"
      "(with-error-handler (lambda (m) m) (lambda () (+ 2305843009213693951 1)))"
      "\"+: fixnum overflow\"";
    fails_with "quotient of the minimum by -1" "(quotient -2305843009213693952 -1)"
      "quotient: fixnum overflow";
    fails_with "abs of the minimum" "(abs -2305843009213693952)" "-: fixnum overflow";
    fails_with "literal product does not wrap" "(* 4611686018427387 1000000)"
      "*: fixnum overflow";
    fails_with "product past OCaml's ints" "(define fx-big 2305843009213693951) (* fx-big fx-big)"
      "*: fixnum overflow";
    fails_with "subtract past the minimum" "(define fx-min -2305843009213693952) (- fx-min 1)"
      "-: fixnum overflow";
    fails_with "negate the minimum" "(- fx-min)" "-: fixnum overflow";
    fails_with "chain overflows midway" "(define fx-one 1) (+ 2305843009213693951 fx-one -1)"
      "+: fixnum overflow";
    fails_with "integer division" "(/ fx-min -1)" "/: fixnum overflow";
    t "maximum is reachable" "(let ([x 2305843009213693950]) (+ x 1))" "2305843009213693951";
    t "minimum is reachable" "(let ([x -2305843009213693951]) (- x 1))" "-2305843009213693952";
    (* Integer literals outside the range read as flonums, in source and
       through string->number alike; the range ends stay fixnums. *)
    t "literal 3e18" "3000000000000000000" "3e+18";
    t "literal max+1" "2305843009213693952" "2.30584300921e+18";
    t "literal min_int" "-4611686018427387904" "-4.61168601843e+18";
    t "literal 1e20" "99999999999999999999" "1e+20";
    t "string->number 3e18" "(string->number \"3000000000000000000\")" "3e+18";
    t "string->number max+1" "(string->number \"2305843009213693952\")" "2.30584300921e+18";
    t "string->number min_int" "(string->number \"-4611686018427387904\")"
      "-4.61168601843e+18";
    t "string->number 1e20" "(string->number \"99999999999999999999\")" "1e+20";
    t "max literal is a fixnum" "(list (fixnum? 2305843009213693951) (- 2305843009213693951 1))"
      "(#t 2305843009213693950)";
    t "min literal is a fixnum" "(list (fixnum? -2305843009213693952) (+ -2305843009213693952 1))"
      "(#t -2305843009213693951)";
    t "string->number max" "(fixnum? (string->number \"2305843009213693951\"))" "#t";
    t "string->number min" "(fixnum? (string->number \"-2305843009213693952\"))" "#t";
  ]

(* Every open-coded op (Instr.ops) on every operand list drawn from
   [open_coded_operands], in tail position and not, gives the value or the
   error message of the same primitive called through a variable, which
   takes the generic call path.  Let-bound operands keep the compiler from
   folding the application. *)
let open_coded_operands =
  [ "0"; "1"; "-7"; "2305843009213693951"; "-2305843009213693952"; "2.5"; "'(1 2)"; "'()";
    "#f"; "#\\a"; "\"s\"" ]

let test_open_coded_vs_generic () =
  let mach = Scheme.create () in
  let outcome src =
    match Scheme.eval mach src with
    | v -> v
    | exception Machine.Error msg ->
        Machine.reset mach;
        "error: " ^ msg
  in
  Array.iter
    (fun (op : Instr.op) ->
      let operand_lists =
        if op.arity = 1 then List.map (fun x -> [ x ]) open_coded_operands
        else
          List.concat_map
            (fun a -> List.map (fun b -> [ a; b ]) open_coded_operands)
            open_coded_operands
      in
      List.iter
        (fun xs ->
          let names = List.mapi (fun i _ -> Printf.sprintf "x%d" i) xs in
          let binds = String.concat " " (List.map2 (Printf.sprintf "[%s %s]") names xs) in
          let args = String.concat " " names in
          List.iter
            (fun wrap ->
              let form call = Printf.sprintf "(let (%s) %s)" binds (Printf.sprintf wrap call) in
              let direct = form (Printf.sprintf "(%s %s)" op.name args) in
              let generic = form (Printf.sprintf "((lambda (f) (f %s)) %s)" args op.name) in
              check_str direct (outcome generic) (outcome direct))
            [ "%s"; "(list %s)" ])
        operand_lists)
    Instr.ops

(* The VM's call dispatch: special primitives follow the primitive, not
   its name; generic arithmetic keeps its results and messages ([apply]
   keeps the compiler from folding literal calls); continuations and
   primitive arguments survive reused control frames and stack growth. *)
let call_path =
  [
    t "call/cc under an alias" "(define kk call/cc) (+ 1 (kk (lambda (c) (c 41) 0)))" "42";
    t "apply under an alias" "(define ap apply) (ap + 1 '(2 3))" "6";
    Alcotest.test_case "redefined + is honoured" `Quick (fun () ->
        let mach = Scheme.create () in
        (* A variable argument: a literal call would be folded. *)
        check_str "set! +" "99"
          (Scheme.eval mach "(set! + (lambda args 99)) (define one 1) (+ one 2)"));
    t "generic (+)" "(apply + '())" "0";
    t "generic (- 5)" "(apply - '(5))" "-5";
    t "generic (< 1 2 3)" "(apply < '(1 2 3))" "#t";
    t "mixed comparison" "(list (< 1 2.5) (< 2.5 1) (= 2 2.0) (>= 3 3.0))" "(#t #f #t #t)";
    t "two-fixnum paths"
      "(let ([a 3] [b 2]) (list (< a b) (> a b) (<= a a) (>= b a) (= a a) (- a b) (+ a b)))"
      "(#f #t #t #f #t 1 5)";
    fails_with "non-number argument" "(+ 1 \"a\")" "+: expected a number";
    fails_with "non-number comparison" "(define not-num 'x) (< 1 not-num)" "<: expected a number";
    fails_with "wrong-arity primitive" "(car 1 2)" "car: wrong number of arguments (2)";
    t "continuation re-entered after frame reuse"
      "(define (deep-capture d f)\n\
      \  (if (= d 0) (call/cc (lambda (c) (f c) 0)) (+ 1 (deep-capture (- d 1) f))))\n\
       (define (churn d) (if (= d 0) '() (cons d (churn (- d 1)))))\n\
       (let ([k #f] [n 0])\n\
      \  (let ([r (deep-capture 1200 (lambda (c) (set! k c)))])\n\
      \    (churn 3000)\n\
      \    (set! n (+ n 1))\n\
      \    (if (< n 4) (k (* n 10)) (list r n))))"
      "(1230 4)";
    Alcotest.test_case "pending arguments survive stack growth" `Quick (fun () ->
        (* [list]'s first argument waits on the stack while a re-entrant
           with-error-handler call recurses past the initial 4096 slots,
           collects, and fails back to its handler. *)
        let mach = Scheme.create () in
        check_str "list" "(\"ab\" (\"error: bottom\") #(1 2))"
          (Scheme.eval mach
             "(define (deep n) (if (= n 0) (begin (collect 4) (error \"bottom\")) (+ 1 (deep (- n 1)))))\n\
              (list (string-append \"a\" \"b\")\n\
             \      (with-error-handler (lambda (m) (list m)) (lambda () (deep 5000)))\n\
             \      (vector 1 2))"));
    Alcotest.test_case "variadic primitive over 5000 arguments" `Quick (fun () ->
        let mach = Scheme.create () in
        check_str "apply" "(5000 12497500)"
          (Scheme.eval mach "(list (length (apply list (iota 5000))) (apply + (iota 5000)))"));
    Alcotest.test_case "VM call counters" `Quick (fun () ->
        let open Gbc_runtime in
        let mach = Scheme.create () in
        ignore (Scheme.eval mach "(define (first x) (car x))");
        let s = Heap.stats (Machine.heap mach) in
        let calls = s.Stats.vm_calls and prims = s.Stats.vm_prim_calls in
        check_str "result" "1" (Scheme.eval mach "(first '(1))");
        (* one call to [first], one tail call to [car] *)
        Alcotest.(check int) "vm_calls" 2 (s.Stats.vm_calls - calls);
        Alcotest.(check int) "vm_prim_calls" 1 (s.Stats.vm_prim_calls - prims));
    Alcotest.test_case "open-coded ops match the generic path" `Quick test_open_coded_vs_generic;
    Alcotest.test_case "car redefined after compilation" `Quick (fun () ->
        let mach = Scheme.create () in
        check_str "set! car" "(2)"
          (Scheme.eval mach "(define (f l) (car l)) (set! car cdr) (f '(1 2))"));
    t "shadowed car" "(let ([car cdr]) (car '(1 2)))" "(2)";
    fails_with "open-coded op with too few arguments" "(car)"
      "car: wrong number of arguments (0)";
    Alcotest.test_case "tail + redefined keeps tail calls" `Quick (fun () ->
        (* [loop]'s tail (+ n 0) falls back to a tail call of the new +,
           which tail-calls [loop]: 100 000 rounds, and the raw
           continuation captured at the bottom, in tail position, holds no
           control frame and a short value stack. *)
        let open Gbc_runtime in
        let mach = Scheme.create () in
        let h = Machine.heap mach in
        let k =
          Machine.eval_string mach
            "(define (loop n) (+ n 0))\n\
             (set! + (lambda (a b) (if (= a 0) (%call/cc-prim (lambda (k) k)) (loop (- a 1)))))\n\
             (loop 100000)"
        in
        check "a continuation" true (Obj.has_code h k Obj.code_continuation);
        Alcotest.(check int) "control frames" 0 (Obj.vector_length h (Obj.field h k 1) / 5);
        check "value stack" true (Obj.vector_length h (Obj.field h k 0) < 8));
    Alcotest.test_case "call/cc through a redefined +" `Quick (fun () ->
        let mach = Scheme.create () in
        check_str "escape" "escaped"
          (Scheme.eval mach
             "(define (g x) (list (+ x 1) 'after))\n\
              (call/cc (lambda (esc) (set! + (lambda (a b) (esc 'escaped))) (g 5)))");
        (* Re-entering resumes just after the op, with the new value. *)
        check_str "re-entry" "((20 after) 3)"
          (Scheme.eval mach
             "(define saved #f)\n\
              (set! + (lambda (a b) (call/cc (lambda (k) (set! saved k) a))))\n\
              (let ([n 0])\n\
             \  (let ([r (g 5)])\n\
             \    (set! n (- n -1))\n\
             \    (if (< n 3) (saved (* n 10)) (list r n))))"));
    Alcotest.test_case "fused op runs with their op rebound" `Quick (fun () ->
        (* Each definition compiles to the run named beside it, which the
           machine runs fused.  Rebound to logging wrappers of the
           primitives, every op takes its generic call, from the stack and
           acc of the unfused run, and gives the same answers. *)
        let mach = Scheme.create () in
        let nums = [ "3"; "30" ] and lists = [ "'(3 4)"; "'(30)" ] in
        let defs =
          [
            ("imm-local", "x", "(list (+ x 1) x)", [ "local"; "push"; "imm"; "op" ], nums);
            ("imm-local-brf", "x", "(if (< x 10) 'small 'big)", [ "local"; "push"; "imm"; "op"; "brf" ], nums);
            ("imm-local-tail", "x", "(- x 1)", [ "local"; "push"; "imm"; "tailop" ], nums);
            ("imm-acc", "l", "(list (+ (car l) 1))", [ "push"; "imm"; "op" ], lists);
            ("imm-acc-brf", "l", "(if (< (car l) 10) 'small 'big)", [ "push"; "imm"; "op"; "brf" ], lists);
            ("local-op", "x", "(list (car x))", [ "local"; "op" ], lists);
            ("local-op-tail", "x", "(cdr x)", [ "local"; "tailop" ], lists);
            ("local-op-brf", "x", "(if (null? x) 'empty 'full)", [ "local"; "op"; "brf" ], [ "'()"; "'(1)" ]);
            ("local-op2", "a b", "(list (eq? a b) a)", [ "local"; "op" ], [ "'a 'a"; "'a 'b" ]);
            ("op-brf", "l", "(if (null? (cdr l)) 'one 'more)", [ "op"; "brf" ], lists);
          ]
        in
        let h = Machine.heap mach in
        let rec has run = function
          | [] -> false
          | l -> List.filteri (fun i _ -> i < List.length run) l = run || has run (List.tl l)
        in
        let calls =
          List.concat_map
            (fun (name, params, body, run, args) ->
              ignore (Scheme.eval mach (Printf.sprintf "(define (%s %s) %s)" name params body));
              let c = Heap.read_cell h (Machine.global_cell mach name) in
              let code = Machine.code mach (Word.to_fixnum (Obj.field h c 0)) in
              let names =
                List.concat_map
                  (fun (cl : Instr.clause) ->
                    Array.to_list
                      (Array.map
                         (fun i -> List.hd (String.split_on_char ' ' (Format.asprintf "%a" Instr.pp_instr i)))
                         cl.instrs))
                  code.clauses
              in
              check (name ^ " holds " ^ String.concat "; " run) true (has run names);
              List.map (Printf.sprintf "(%s %s)" name) args)
            defs
        in
        let all = Printf.sprintf "(list %s)" (String.concat " " calls) in
        let expected = Scheme.eval mach all in
        ignore
          (Scheme.eval mach
             "(define log '())
              (define (logged name p) (lambda args (set! log (cons name log)) (apply p args)))
              (set! + (logged '+ +)) (set! - (logged '- -)) (set! < (logged '< <))
              (set! car (logged 'car car)) (set! cdr (logged 'cdr cdr))
              (set! null? (logged 'null? null?)) (set! eq? (logged 'eq? eq?))");
        check_str "same answers" expected (Scheme.eval mach all);
        check_str "each op called generically"
          "(+ + < < - - car + car + car < car < car car cdr cdr null? null? eq? eq? cdr null? cdr null?)"
          (Scheme.eval mach "(reverse log)"));
    Alcotest.test_case "call/cc inside a fused op-and-branch" `Quick (fun () ->
        (* [<] captures inside the generic call of a fused [local; push;
           imm; op; brf] run; re-entering with #f resumes at the brf. *)
        let mach = Scheme.create () in
        check_str "re-entry" "(big 3)"
          (Scheme.eval mach
             "(define (size x) (if (< x 10) 'small 'big))
              (define saved #f)
              (set! < (let ([lt <]) (lambda (a b) (call/cc (lambda (k) (set! saved k) (lt a b))))))
              (let ([n 0])
             \  (let ([r (size 5)])
             \    (set! n (- n -1))
             \    (if (= n 3) (list r n) (saved #f))))"));
    Alcotest.test_case "car after a collection at its safepoint" `Quick (fun () ->
        (* Collections every 512 words; each round conses a fresh pair
           right before (car ...), so many collections fire at that op's
           safepoint and move the pair it then reads, and the vector in
           its car, which must come out as the moved copy. *)
        let open Gbc_runtime in
        let config = Config.v ~gen0_trigger_words:512 () in
        let mach = Scheme.create ~config () in
        check_str "sum" (string_of_int (5000 * 5001 / 2))
          (Scheme.eval mach
             "(define (walk n acc)\n\
             \  (if (= n 0) acc\n\
             \      (walk (- n 1) (+ acc (vector-ref (car (cons (make-vector (+ 1 (modulo n 4)) n) n)) 0)))))\n\
              (walk 5000 0)");
        check "collections" true
          ((Heap.stats (Machine.heap mach)).Stats.total.Stats.collections > 20);
        Machine.dispose mach);
    Alcotest.test_case "image saved after (set! + ...)" `Quick (fun () ->
        let mach = Scheme.create () in
        ignore (Scheme.eval mach "(define (f x) (+ x 1)) (set! + (lambda (a b) 42))");
        let restored =
          Scheme_image.load_string ~install:Primitives.install (Scheme_image.save_string mach)
        in
        check_str "restored" "(42 42 42)"
          (Scheme.eval restored "(define y 7) (list (f 1) (+ y y) (let ([x 5]) (+ x 1)))"));
  ]

(* Each clause runs as a chain of steps, and control frames are ints: a
   frame names its caller by code id, clause and pc, a host-boundary
   frame returns to a halt, and continuations are checked against the
   clause table when they are reinstated. *)

let case_lambda_src =
  "(define k #f)\n\
   (define f (case-lambda (() 'none) ((x) (list 'first (+ x (call/cc (lambda (c) (set! k c) 0)))))))\n\
   (define (grab) (call/cc (lambda (c) (set! k c) 0)))\n\
   (define g (case-lambda (() 'none) ((x) (list 'second (+ x (grab))))))"

(* A copy of the continuation [src] returns, changed by [patch] and bound
   to the global [bad].  No collection runs between the capture and the
   binding: the machine reaches no safepoint. *)
let forge_continuation mach src patch =
  let h = Machine.heap mach in
  let k = Machine.eval_string mach src in
  let f = Obj.make_typed h ~code:Obj.code_continuation ~len:7 ~init:(Word.of_fixnum 0) () in
  for i = 0 to 6 do
    Obj.set_field h f i (Obj.field h k i)
  done;
  patch h f;
  Heap.write_cell h (Machine.global_cell mach "bad") f

let dispatch =
  [
    Alcotest.test_case "continuation in case-lambda clause 1" `Quick (fun () ->
        (* [f] captures at its own call/cc (the resume point names clause
           1); [grab] captures in tail position, so the resume point is
           the control frame of [g]'s clause 1.  Both are re-entered after
           the clause returned. *)
        let mach = Scheme.create () in
        ignore (Scheme.eval mach case_lambda_src);
        check_str "f" "(first 10)" (Scheme.eval mach "(f 10)");
        check_str "f re-entered" "(first 11)" (Scheme.eval mach "(k 1)");
        check_str "g" "(second 20)" (Scheme.eval mach "(g 20)");
        check_str "g re-entered" "(second 22)" (Scheme.eval mach "(k 2)");
        check_str "g re-entered again" "(second 23)" (Scheme.eval mach "(k 3)"));
    Alcotest.test_case "capture past control-array growth, re-entered twice" `Quick (fun () ->
        (* 300 frames: a fresh machine's control array holds 256. *)
        let mach = Scheme.create () in
        check_str "results" "(2300 1300 300)"
          (Scheme.eval mach
             "(define kd #f)\n\
              (define (deep d) (if (= d 0) (call/cc (lambda (c) (set! kd c) 0)) (+ 1 (deep (- d 1)))))\n\
              (let ([n 0] [rs '()])\n\
             \  (let ([r (deep 300)])\n\
             \    (set! rs (cons r rs))\n\
             \    (set! n (+ n 1))\n\
             \    (if (< n 3) (kd (* n 1000)) rs)))"));
    Alcotest.test_case "collect-request handler between Scheme frames" `Quick (fun () ->
        (* Collections every 512 words fire the handler at safepoints deep
           in [build] and [sum]: its host-boundary frame sits on top of
           Scheme frames, with the handler's own calls above it.  Each
           firing costs 34 VM calls, 25 of them primitive: the handler,
           [+], [collect], 14 calls in [(build 3)] and 17 in [sum].  The
           prelude's lets make no calls, so its first collection falls in
           the definitions below, and the loop crosses the trigger 39
           times. *)
        let config = Config.v ~gen0_trigger_words:512 () in
        let mach = Scheme.create ~config () in
        ignore
          (Scheme.eval mach
             "(define fired 0)\n\
              (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))\n\
              (define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))\n\
              (collect-request-handler\n\
             \  (lambda () (set! fired (+ fired 1)) (collect) (sum (build 3))))\n\
              (define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc (sum (build 200))))))");
        let s = Heap.stats (Machine.heap mach) in
        let calls = s.Stats.vm_calls and prims = s.Stats.vm_prim_calls in
        check_str "result" "(1005000 39)" (Scheme.eval mach "(list (loop 50 0) fired)");
        Alcotest.(check int) "vm_calls" 91729 (s.Stats.vm_calls - calls);
        Alcotest.(check int) "vm_prim_calls" 71227 (s.Stats.vm_prim_calls - prims);
        Machine.dispose mach);
    Alcotest.test_case "fib 25 call counts" `Quick (fun () ->
        let mach = Scheme.create () in
        ignore (Scheme.eval mach "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
        let s = Heap.stats (Machine.heap mach) in
        let calls = s.Stats.vm_calls and prims = s.Stats.vm_prim_calls in
        check_str "fib 25" "75025" (Scheme.eval mach "(fib 25)");
        Alcotest.(check int) "vm_calls" 849746 (s.Stats.vm_calls - calls);
        Alcotest.(check int) "vm_prim_calls" 606961 (s.Stats.vm_prim_calls - prims));
    Alcotest.test_case "run_code registers a code once" `Quick (fun () ->
        let mach = Scheme.create () in
        ignore (Scheme.eval mach "(define kk #f) (define hits 0)");
        let code =
          List.hd
            (Compile.compile_toplevel (Machine.linker mach)
               (Reader.read_one
                  "(+ 1 (call/cc (lambda (c) (if (= hits 0) (set! kk c)) (set! hits (+ hits 1)) 0)))"))
        in
        let n0 = Array.length (Machine.image_codes mach) in
        for _ = 1 to 1000 do
          ignore (Machine.run_code mach code)
        done;
        Alcotest.(check int) "codes" (n0 + 1) (Array.length (Machine.image_codes mach));
        check_str "hits" "1000" (Scheme.eval mach "hits");
        check_str "resumed" "42" (Scheme.eval mach "(kk 41)"));
    Alcotest.test_case "forged closure ids are Scheme errors" `Quick (fun () ->
        (* Field 0 of a closure names a code id, or a primitive id when
           negative; one past either table, a non-fixnum there, or no
           field 0 at all must not escape the VM, on a call or in
           [disassemble] (which prints any primitive id). *)
        List.iter
          (fun (name, fields, srcs) ->
            let mach = Scheme.create () in
            let h = Machine.heap mach in
            let len = List.length fields in
            let c = Obj.make_typed h ~code:Obj.code_closure ~len ~init:Word.nil () in
            List.iteri (Obj.set_field h c) fields;
            Heap.write_cell h (Machine.global_cell mach "badc") c;
            List.iter
              (fun src ->
                (match Scheme.eval mach src with
                | exception Machine.Error msg ->
                    check (name ^ " " ^ src ^ ": " ^ msg) true (String.starts_with ~prefix:"closure: " msg)
                | v -> Alcotest.failf "%s %s: expected a Scheme error, got %s" name src v);
                Machine.reset mach;
                check_str (name ^ ": machine still works") "3" (Scheme.eval mach "(+ 1 2)"))
              srcs)
          [
            ("code id", [ Word.of_fixnum 9999 ], [ "(badc)"; "(disassemble badc)" ]);
            ("prim id", [ Word.of_fixnum (-9999) ], [ "(badc)" ]);
            ("field 0 true", [ Word.true_ ], [ "(badc)"; "(disassemble badc)" ]);
            ("no fields", [], [ "(badc)"; "(disassemble badc)" ]);
          ]);
    Alcotest.test_case "malformed continuations are Scheme errors" `Quick (fun () ->
        (* The raw continuation, not [call/cc]'s dynamic-wind wrapper. *)
        let captured = "(%call/cc-prim (lambda (c) c))" in
        (* Inside [h]'s non-tail call: one control frame, the top level's. *)
        let framed = "(define (h) (list (%call/cc-prim (lambda (c) c)))) (car (h))" in
        let set field value h f = Obj.set_field h f field value in
        (* Frame 0 of the control snapshot, in a copy, names code 9999. *)
        let bad_frame h f =
          let ctl = Obj.field h f 1 in
          let n = Obj.vector_length h ctl in
          let copy = Obj.make_vector h ~len:n ~init:(Word.of_fixnum 9999) in
          for i = 1 to n - 1 do
            Obj.vector_set h copy i (Obj.vector_ref h ctl i)
          done;
          Obj.set_field h f 1 copy
        in
        (* Resumes above one pushed word: [cons]'s first argument. *)
        let pending = "(cdr (cons 1 (%call/cc-prim (lambda (c) c))))" in
        let short_stack h f =
          let vs = Obj.field h f 0 in
          let n = Obj.vector_length h vs - 1 in
          let copy = Obj.make_vector h ~len:n ~init:Word.nil in
          for i = 0 to n - 1 do
            Obj.vector_set h copy i (Obj.vector_ref h vs i)
          done;
          Obj.set_field h f 0 copy
        in
        let cases =
          [
            ("value stack short of the resume depth", pending, short_stack);
            ("code id", captured, set 3 (Word.of_fixnum 9999));
            ("clause", captured, set 4 (Word.of_fixnum 5));
            ("pc", captured, set 5 (Word.of_fixnum 100_000));
            ("fp", captured, set 2 (Word.of_fixnum 100_000));
            ("resume code id not a fixnum", captured, set 3 Word.nil);
            ("value stack not a vector", captured, set 0 (Word.of_fixnum 0));
            ("frame code id", framed, bad_frame);
          ]
        in
        List.iter
          (fun (name, src, patch) ->
            let mach = Scheme.create () in
            forge_continuation mach src patch;
            (match Scheme.eval mach "(bad 1)" with
            | exception Machine.Error msg ->
                check (name ^ ": " ^ msg) true (String.starts_with ~prefix:"continuation: " msg)
            | v -> Alcotest.failf "%s: expected a Scheme error, got %s" name v);
            Machine.reset mach;
            check_str (name ^ ": machine still works") "3" (Scheme.eval mach "(+ 1 2)"))
          cases);
    Alcotest.test_case "free-slot operands are bounded" `Quick (fun () ->
        (* A free slot's bound is the running closure's length, known only
           when the slot is read: each read checks it. *)
        let top instrs =
          { Instr.name = "top"; clauses = [ { Instr.required = 0; rest = false; frame = 0; instrs } ] }
        in
        List.iter
          (fun (name, run) ->
            let mach = Scheme.create () in
            (match run mach with
            | exception Machine.Error msg ->
                check (name ^ ": " ^ msg) true (String.starts_with ~prefix:"closure: free slot " msg)
            | v -> Alcotest.failf "%s: ran, giving %s" name (Printer.to_string (Machine.heap mach) v));
            Machine.reset mach;
            check_str (name ^ ": machine still works") "3" (Scheme.eval mach "(+ 1 2)"))
          [
            ( "run_code far out",
              fun mach -> Machine.run_code mach (top [| Instr.Free_ref 100000; Instr.Halt |]) );
            ( "set through a free slot",
              fun mach -> Machine.run_code mach (top [| Instr.Imm (Word.of_fixnum 1); Instr.Free_set_box (-1); Instr.Halt |]) );
            ( "forged closure with no free variables",
              fun mach ->
                let h = Machine.heap mach in
                let reads = { (top [| Instr.Free_ref 1; Instr.Return |]) with Instr.name = "reads free 1" } in
                let id = (Machine.linker mach).Compile.add_code reads in
                let c = Obj.make_typed h ~code:Obj.code_closure ~len:1 ~init:(Word.of_fixnum id) () in
                Heap.write_cell h (Machine.global_cell mach "badc") c;
                Machine.eval_string mach "(badc)" );
          ]);
    Alcotest.test_case "hostile code is a Scheme error" `Quick (fun () ->
        (* Hand-built one-clause codes: each is refused by add_code before
           anything runs, but the free slot, whose bound is the running
           closure's, and the two box operands, whose type only a run
           sees.  Before the code check, the first seven escaped the VM as
           OCaml exceptions and the code id, the forged op and the join
           ran; before the box test, the box cases failed an assert. *)
        let mach = Scheme.create () in
        let cell = Machine.global_cell mach "+" and add = Instr.ops.(0) in
        let car = Option.get (Instr.find_op "car") and fx = Word.of_fixnum in
        let one ?(frame = 0) instrs =
          { Instr.name = "hostile"; clauses = [ { Instr.required = 0; rest = false; frame; instrs } ] }
        in
        let cases =
          [
            ("free slot", true, one [| Instr.Free_ref 100000; Instr.Halt |]);
            ("constant", false, one [| Instr.Const 999999; Instr.Halt |]);
            ("jump", false, one [| Instr.Jump 5; Instr.Halt |]);
            ("global cell", false, one [| Instr.Global_ref 99999999; Instr.Halt |]);
            ("closure pops", false, one [| Instr.Make_closure { code_id = 0; nfree = 3 }; Instr.Halt |]);
            ("op pops", false, one [| Instr.Imm (Word.of_fixnum 1); Instr.Op { op = add; cell; tail = false }; Instr.Halt |]);
            ("no terminator", false, one [| Instr.Imm (Word.of_fixnum 1) |]);
            ("vast frame", false, one ~frame:(1 lsl 40) [| Instr.Halt |]);
            ("code id", false, one [| Instr.Make_closure { code_id = 99999; nfree = 0 }; Instr.Halt |]);
            ("local slot", false, one [| Instr.Local_ref 100000; Instr.Halt |]);
            ("local-pop", false, one ~frame:2 [| Instr.Local_pop { slot = 0; count = 2 }; Instr.Halt |]);
            ( "forged op",
              false,
              one [| Instr.Op { op = { add with Instr.arity = 1 }; cell; tail = false }; Instr.Halt |] );
            ( "mismatched join",
              false,
              one [| Instr.Imm Word.false_; Instr.Branch_false 3; Instr.Push; Instr.Halt |] );
            ("unbox a non-box", true, one [| Instr.Imm (Word.of_fixnum 1); Instr.Unbox; Instr.Halt |]);
            ( "set a non-box",
              true,
              one ~frame:1 [| Instr.Imm (Word.of_fixnum 1); Instr.Local_set 0; Instr.Local_set_box 0; Instr.Halt |] );
            (* Raw words that are not immediates: before the check, the
               first two escaped as Invalid_argument, the third read the
               pair at address 0, and the forwarding marker made a pair
               that a collection turned into its cdr, with Verify clean. *)
            ("typed-tagged imm", false, one [| Instr.Imm ((1 lsl 40) lor 3); Instr.Unbox; Instr.Halt |]);
            ( "pair-tagged imm",
              false,
              one
                [| Instr.Imm ((1 lsl 40) lor 1);
                   Instr.Op { op = car; cell = Machine.global_cell mach "car"; tail = false };
                   Instr.Halt |] );
            ("imm 1", false, one [| Instr.Imm 1; Instr.Unbox; Instr.Halt |]);
            ( "forwarding-marker imm",
              false,
              one
                [| Instr.Imm Word.forward_marker; Instr.Push; Instr.Imm (fx 7); Instr.Push;
                   Instr.Global_ref (Machine.global_cell mach "cons"); Instr.Call 2;
                   Instr.Global_define (Machine.global_cell mach "xx"); Instr.Halt |] );
          ]
        in
        List.iter
          (fun (name, runs, code) ->
            let ncodes () = Array.length (Machine.image_codes mach) in
            let n = ncodes () in
            (match Machine.run_code mach code with
            | v -> Alcotest.failf "%s: ran, giving %s" name (Printer.to_string (Machine.heap mach) v)
            | exception Machine.Error msg ->
                Alcotest.(check bool) (name ^ " ran first: " ^ msg) runs (ncodes () > n));
            Machine.reset mach;
            check_str (name ^ ": machine still works") "3" (Scheme.eval mach "(+ 1 2)"))
          cases);
    Alcotest.test_case "free box operands are checked" `Quick (fun () ->
        (* A closure forged with a fixnum where its code expects a box:
           [free 0; unbox] runs fused, [free-set-box 0] plain. *)
        let mach = Scheme.create () in
        let h = Machine.heap mach in
        List.iter
          (fun (name, instrs) ->
            let id =
              (Machine.linker mach).Compile.add_code
                { Instr.name; clauses = [ { Instr.required = 0; rest = false; frame = 0; instrs } ] }
            in
            let c = Obj.make_typed h ~code:Obj.code_closure ~len:2 ~init:(Word.of_fixnum 7) () in
            Obj.set_field h c 0 (Word.of_fixnum id);
            Heap.write_cell h (Machine.global_cell mach "badc") c;
            (match Machine.eval_string mach "(badc)" with
            | v -> Alcotest.failf "%s: ran, giving %s" name (Printer.to_string h v)
            | exception Machine.Error msg -> check_str name "not a box: 7" msg);
            Machine.reset mach)
          [
            ("free unbox", [| Instr.Free_ref 0; Instr.Unbox; Instr.Return |]);
            ("free set-box", [| Instr.Imm (Word.of_fixnum 1); Instr.Free_set_box 0; Instr.Return |]);
          ]);
    Alcotest.test_case "a branch into a fused run" `Quick (fun () ->
        (* Pcs 5-6 are [local 0; push], one fused run; with flag #f the
           brf lands on its push, with #f in acc. *)
        let mach = Scheme.create () in
        let flag = Machine.global_cell mach "flag" and list = Machine.global_cell mach "list" in
        let instrs =
          [| Instr.Imm (Word.of_fixnum 5); Instr.Local_set 0; Instr.Global_ref flag; Instr.Branch_false 6;
             Instr.Imm (Word.of_fixnum 9); Instr.Local_ref 0; Instr.Push; Instr.Global_ref list;
             Instr.Call 1; Instr.Halt |]
        in
        let code = { Instr.name = "join"; clauses = [ { Instr.required = 0; rest = false; frame = 1; instrs } ] } in
        List.iter
          (fun (v, expected) ->
            ignore (Scheme.eval mach ("(define flag " ^ v ^ ")"));
            check_str v expected (Printer.to_string (Machine.heap mach) (Machine.run_code mach code)))
          [ ("#t", "(5)"); ("#f", "(#f)"); ("#t", "(5)") ]);
    Alcotest.test_case "a branch into every fused run" `Quick (fun () ->
        (* One code per family of fused runs, run as a closure whose free
           slots hold 7 and a box of 8.  With flag '() the code runs the
           whole run from its first pc; with flag #f a brf lands on the
           run's second instruction, with #f in acc, and that pc runs on
           its own.  A run that starts with a push is entered at depth 0
           and the brf is taken at depth 1, past a local-pop. *)
        let mach = Scheme.create () in
        let h = Machine.heap mach and cell = Machine.global_cell mach in
        let fx = Word.of_fixnum and flag = Instr.Global_ref (cell "flag") in
        let op name = Instr.Op { op = Option.get (Instr.find_op name); cell = cell name; tail = false } in
        let list = Instr.Global_ref (cell "list") and pop = Instr.Local_pop { slot = 0; count = 1 } in
        let slot5 = [| Instr.Imm (fx 5); Instr.Local_set 0; flag; Instr.Branch_false 5 |] in
        let pushed5 = [| Instr.Imm (fx 5); Instr.Push; flag; Instr.Branch_false 6; pop |] in
        let cases =
          [
            ("local; push", slot5, [| Instr.Local_ref 0; Instr.Push; list; Instr.Call 1; Instr.Return |], "(5)", "(#f)");
            ("free; push", slot5, [| Instr.Free_ref 0; Instr.Push; list; Instr.Call 1; Instr.Return |], "(7)", "(#f)");
            ("free; unbox", slot5, [| Instr.Free_ref 1; Instr.Unbox; Instr.Return |], "8", "not a box: #f");
            ( "global; call",
              [| Instr.Imm (fx 5); Instr.Push; flag; Instr.Branch_false 5 |],
              [| list; Instr.Call 1; Instr.Return |],
              "(5)",
              "attempt to apply non-procedure: #f" );
            ( "local; call",
              [| list; Instr.Local_set 0; Instr.Imm (fx 5); Instr.Push; flag; Instr.Branch_false 7 |],
              [| Instr.Local_ref 0; Instr.Call 1; Instr.Return |],
              "(5)",
              "attempt to apply non-procedure: #f" );
            ("push; global; call", pushed5, [| Instr.Push; list; Instr.Call 1; Instr.Return |], "(())", "(5)");
            ( "local; push; imm; op; brf",
              slot5,
              [| Instr.Local_ref 0; Instr.Push; Instr.Imm Word.false_; op "eq?"; Instr.Branch_false 11;
                 Instr.Imm (fx 1); Instr.Return; Instr.Imm (fx 2); Instr.Return |],
              "2",
              "1" );
            ("push; imm; op", pushed5, [| Instr.Push; Instr.Imm Word.nil; op "eq?"; Instr.Return |], "#t", "#f");
            ("local; op", slot5, [| Instr.Local_ref 0; op "not"; Instr.Return |], "#f", "#t");
            ( "op; brf",
              slot5,
              [| op "null?"; Instr.Branch_false 8; Instr.Imm (fx 1); Instr.Return; Instr.Imm (fx 2); Instr.Return |],
              "1",
              "2" );
          ]
        in
        List.iter
          (fun (name, prefix, run, on_nil, on_false) ->
            let instrs = Array.append prefix run in
            let id =
              (Machine.linker mach).Compile.add_code
                { Instr.name; clauses = [ { Instr.required = 0; rest = false; frame = 1; instrs } ] }
            in
            let box = Obj.make_box h (fx 8) in
            let c = Obj.make_typed h ~code:Obj.code_closure ~len:3 ~init:box () in
            Obj.set_field h c 0 (fx id);
            Obj.set_field h c 1 (fx 7);
            Heap.write_cell h (cell "f") c;
            List.iter
              (fun (v, expected) ->
                let got =
                  match Scheme.eval mach (Printf.sprintf "(define flag %s) (f)" v) with
                  | got -> got
                  | exception Machine.Error msg -> Machine.reset mach; msg
                in
                check_str (name ^ " with flag " ^ v) expected got)
              [ ("'()", on_nil); ("#f", on_false) ])
          cases);
    Alcotest.test_case "unreachable tails build" `Quick (fun () ->
        (* Dead code past a halt: a fused run, or a call or an op at the
           clause's last pc, whose step would continue past the end.  The
           code is accepted and runs. *)
        let mach = Scheme.create () in
        let cell = Machine.global_cell mach and fx = Word.of_fixnum in
        let op name = Instr.Op { op = Option.get (Instr.find_op name); cell = cell name; tail = false } in
        List.iter
          (fun (name, dead) ->
            let instrs = Array.append [| Instr.Imm (fx 1); Instr.Halt |] dead in
            let code = { Instr.name; clauses = [ { Instr.required = 0; rest = false; frame = 1; instrs } ] } in
            check_str name "1" (Printer.to_string (Machine.heap mach) (Machine.run_code mach code)))
          [
            ("local; push", [| Instr.Local_ref 0; Instr.Push |]);
            ("free; unbox", [| Instr.Free_ref 0; Instr.Unbox |]);
            ("push; global; call", [| Instr.Push; Instr.Global_ref (cell "list"); Instr.Call 0 |]);
            ("call", [| Instr.Call 0 |]);
            ("tail call", [| Instr.Tail_call 0 |]);
            ("push; imm; op", [| Instr.Push; Instr.Imm (fx 2); op "+" |]);
            ("local; op", [| Instr.Local_ref 0; op "car" |]);
            ("op", [| op "cdr" |]);
          ]);
    Alcotest.test_case "a poisoned heap raises at each safepoint" `Quick (fun () ->
        (* Heap.poison forces the safepoint's limit low: a loop jump, an op
           (plain and fused) and a call (plain and fused) raise with
           nothing allocated since. *)
        let mach = Scheme.create () in
        let h = Machine.heap mach in
        let top instrs =
          { Instr.name = "top"; clauses = [ { Instr.required = 0; rest = false; frame = 0; instrs } ] }
        in
        let fx = Word.of_fixnum and list = Machine.global_cell mach "list" in
        let add = Instr.Op { op = Instr.ops.(0); cell = Machine.global_cell mach "+"; tail = false } in
        let codes =
          [
            ("loop", top [| Instr.Jump 2; Instr.Halt; Instr.Loop 1 |]);
            ("op", top [| Instr.Imm (fx 1); Instr.Push; Instr.Imm (fx 2); Instr.Jump 4; add; Instr.Halt |]);
            ("fused op", top [| Instr.Imm (fx 1); Instr.Push; Instr.Imm (fx 2); add; Instr.Halt |]);
            ("call", top [| Instr.Global_ref list; Instr.Jump 2; Instr.Call 0; Instr.Halt |]);
            ("fused call", top [| Instr.Global_ref list; Instr.Call 0; Instr.Halt |]);
          ]
        in
        List.iter (fun (_, code) -> ignore (Machine.run_code mach code)) codes;
        let words () = (Heap.stats h).Stats.words_allocated_since_gc in
        let before = words () in
        Heap.poison h "poisoned by the test";
        List.iter
          (fun (name, code) ->
            (match Machine.run_code mach code with
            | v -> Alcotest.failf "%s: ran, giving %s" name (Printer.to_string h v)
            | exception Heap.Poisoned e -> check_str name "poisoned by the test" e);
            Machine.reset mach)
          codes;
        Alcotest.(check int) "nothing allocated" before (words ()));
    Alcotest.test_case "local-slot operands are bounded" `Quick (fun () ->
        (* A clause's locals are its parameters (and rest list): any other
           local slot is refused when the code is added, before it runs. *)
        let clause ?(required = 0) ?(rest = false) instrs =
          { Instr.required; rest; frame = required + Bool.to_int rest; instrs }
        in
        let mach = Scheme.create () in
        let run name clauses =
          match Machine.run_code mach { Instr.name; clauses } with
          | v -> Alcotest.failf "%s: ran, giving %s" name (Printer.to_string (Machine.heap mach) v)
          | exception Machine.Error msg ->
              check msg true (String.starts_with ~prefix:(name ^ ": local slot ") msg)
        in
        run "run_code far out" [ clause [| Instr.Local_ref 100000; Instr.Halt |] ];
        run "negative" [ clause [| Instr.Local_ref (-1); Instr.Halt |] ];
        let add name clauses =
          match (Machine.linker mach).Compile.add_code { Instr.name; clauses } with
          | _ -> Alcotest.failf "%s: added" name
          | exception Machine.Error msg ->
              check msg true (String.starts_with ~prefix:(name ^ ": local slot ") msg)
        in
        add "past the parameters" [ clause ~required:2 [| Instr.Local_set_box 2; Instr.Return |] ];
        add "past the rest list" [ clause ~required:1 ~rest:true [| Instr.Box_local 2; Instr.Return |] ];
        add "second clause"
          [ clause [| Instr.Return |]; clause ~required:1 [| Instr.Local_ref 1; Instr.Return |] ];
        (* Let slots sit past the parameters, up to the clause's frame. *)
        let framed ?(required = 1) frame instrs = { Instr.required; rest = false; frame; instrs } in
        add "past the frame" [ framed 3 [| Instr.Local_ref 3; Instr.Return |] ];
        add "set past the frame" [ framed 3 [| Instr.Local_set 3; Instr.Return |] ];
        add "clear past the frame"
          [ framed 3 [| Instr.Local_clear { slot = 2; count = 2 }; Instr.Return |] ];
        add "pop past the frame" [ framed 3 [| Instr.Local_pop { slot = 1; count = 3 }; Instr.Return |] ];
        add "negative clear" [ framed 3 [| Instr.Local_clear { slot = -1; count = 1 }; Instr.Return |] ];
        add "overflowing clear"
          [ framed 3 [| Instr.Local_clear { slot = 1; count = max_int }; Instr.Return |] ];
        (match
           (Machine.linker mach).Compile.add_code
             { Instr.name = "small frame"; clauses = [ framed ~required:2 1 [| Instr.Return |] ] }
         with
        | _ -> Alcotest.fail "frame below its parameters added"
        | exception Machine.Error msg ->
            check_str "frame message" "small frame: frame 1 smaller than its 2 parameters" msg);
        (* A pop past what was pushed would hand out the frame's slots:
           refused with the stack depths, before anything runs. *)
        (match
           Machine.run_code mach
             { Instr.name = "underflow";
               clauses = [ framed ~required:0 2 [| Instr.Local_pop { slot = 0; count = 2 }; Instr.Halt |] ] }
         with
        | _ -> Alcotest.fail "pop past the stack top ran"
        | exception Machine.Error msg ->
            check_str "underflow" "underflow: stack underflow at 0: local-pop 0/2 pops 2 of 0" msg);
        Machine.reset mach;
        (* A top-level clause's let slots are reserved and usable. *)
        check_str "let slot at top level" "7"
          (Printer.to_string (Machine.heap mach)
             (Machine.run_code mach
                { Instr.name = "slots";
                  clauses =
                    [ framed ~required:0 2
                        [| Instr.Imm (Word.of_fixnum 7); Instr.Local_set 1; Instr.Imm Word.nil;
                           Instr.Local_ref 1; Instr.Halt |] ] }));
        let ncodes () = Array.length (Machine.image_codes mach) in
        let n = ncodes () in
        let rest_slot = clause ~required:1 ~rest:true [| Instr.Local_ref 1; Instr.Return |] in
        ignore ((Machine.linker mach).Compile.add_code { Instr.name = "rest slot"; clauses = [ rest_slot ] });
        Alcotest.(check int) "only the valid code added" (n + 1) (ncodes ());
        check_str "machine still works" "3" (Scheme.eval mach "(+ 1 2)"));
  ]

(* The seven list searches are primitives.  Their former Scheme
   definitions are the reference: same answers (the same tail or pair, by
   eq?), on random lists of symbols, fixnums, pairs, flonums and strings. *)
let reference_searches =
  "(define (ref-memq x l) (cond [(null? l) #f] [(eq? x (car l)) l] [else (ref-memq x (cdr l))]))\n\
   (define (ref-memv x l) (cond [(null? l) #f] [(eqv? x (car l)) l] [else (ref-memv x (cdr l))]))\n\
   (define (ref-member x l) (cond [(null? l) #f] [(equal? x (car l)) l] [else (ref-member x (cdr l))]))\n\
   (define (ref-assq x l) (cond [(null? l) #f] [(eq? x (caar l)) (car l)] [else (ref-assq x (cdr l))]))\n\
   (define (ref-assv x l) (cond [(null? l) #f] [(eqv? x (caar l)) (car l)] [else (ref-assv x (cdr l))]))\n\
   (define (ref-assoc x l) (cond [(null? l) #f] [(equal? x (caar l)) (car l)] [else (ref-assoc x (cdr l))]))\n\
   (define (ref-remq x l)\n\
  \  (cond [(null? l) '()] [(eq? x (car l)) (ref-remq x (cdr l))] [else (cons (car l) (ref-remq x (cdr l)))]))\n\
   (define (same-searches x l)\n\
  \  (let ([al (map (lambda (e) (cons e 'v)) l)])\n\
  \    (list (eq? (memq x l) (ref-memq x l)) (eq? (memv x l) (ref-memv x l))\n\
  \          (eq? (member x l) (ref-member x l)) (eq? (assq x al) (ref-assq x al))\n\
  \          (eq? (assv x al) (ref-assv x al)) (eq? (assoc x al) (ref-assoc x al))\n\
  \          (equal? (remq x l) (ref-remq x l))\n\
  \          (if (memq x l) 'q (if (memv x l) 'v (if (member x l) 'm '-))))))"

(* Each call makes a fresh object where it can, so only eqv? or equal?
   can match it. *)
let search_atoms =
  [| "'a"; "'b"; "0"; "1"; "(cons 1 2)"; "(list 'a 1)"; "1.5"; "(+ 0.5 1.0)";
     "(string #\\x)"; "(string #\\y)"; "'()"; "#f" |]

let differential_searches () =
  let mach = Scheme.create () in
  ignore (Scheme.eval mach reference_searches);
  let rng = Random.State.make [| 23 |] in
  let hits = Hashtbl.create 4 in
  for case = 1 to 400 do
    let n = Random.State.int rng 9 in
    let atom () = search_atoms.(Random.State.int rng (Array.length search_atoms)) in
    let elems = List.init n (fun i -> Printf.sprintf "[e%d %s]" i (atom ())) in
    let key =
      if n > 0 && Random.State.bool rng then Printf.sprintf "e%d" (Random.State.int rng n)
      else atom ()
    in
    let src =
      Printf.sprintf "(let* (%s [l (list %s)] [x %s]) (same-searches x l))" (String.concat " " elems)
        (String.concat " " (List.init n (Printf.sprintf "e%d")))
        key
    in
    match Scheme.eval mach src with
    | got ->
        let kind = String.sub got (String.length got - 2) 1 in
        Hashtbl.replace hits kind ();
        check_str (Printf.sprintf "case %d: %s" case src) "(#t #t #t #t #t #t #t " (String.sub got 0 22)
  done;
  (* Every kind of match occurred: eq?, eqv?-only, equal?-only, none. *)
  List.iter (fun k -> check ("some case matched by " ^ k) true (Hashtbl.mem hits k)) [ "q"; "v"; "m"; "-" ]

let list_searches =
  [
    Alcotest.test_case "same answers as the Scheme definitions" `Quick differential_searches;
    t "weak-cons buckets"
      "(define wk1 (cons 1 2)) (define wk2 (cons 3 4))\n\
       (define wb (list (weak-cons wk1 'one) (weak-cons wk2 'two) (weak-cons 'sym 'three)))\n\
       (list (eq? (assq wk2 wb) (cadr wb)) (cdr (assq 'sym wb)) (assq (cons 1 2) wb)\n\
      \      (length (remq (car wb) wb)) (eq? (cadr (remq (car wb) wb)) (caddr wb)))"
      "(#t three #f 2 #t)";
    t "weak-cons bucket after its key dies"
      "(define wd1 (cons 1 2)) (define wd (list (weak-cons wd1 'one) (weak-cons 'sym 'two)))\n\
       (set! wd1 #f) (collect 4) (list (car (car wd)) (cdr (assq 'sym wd)) (assq #f wd))"
      "(#f two #<weak (#f . one)>)";
    fails_with "improper tail" "(memq 'x '(a b . c))" "memq: improper list";
    fails_with "not a list" "(member 1 5)" "member: improper list";
    fails_with "improper alist" "(assoc 'x '((a . 1) . 5))" "assoc: improper list";
    fails_with "non-pair alist element" "(assq 'x '((a . 1) 2))" "assq: expected a pair, got 2";
    fails_with "improper remq" "(remq 'x '(a . b))" "remq: improper list";
    Alcotest.test_case "circular lists" `Quick (fun () ->
        let mach = Scheme.create () in
        ignore
          (Scheme.eval mach
             "(define (cycle l) (set-cdr! (last-pair l) l) l)\n\
              (define c1 (cycle (list 1))) (define c3 (cycle (list 1 2 3)))\n\
              (define a1 (cycle (list '(1 . a)))) (define a3 (cycle (list '(1 . a) '(2 . b) '(3 . c))))");
        List.iter
          (fun name ->
            let lists = if String.starts_with ~prefix:"ass" name then [ "a1"; "a3" ] else [ "c1"; "c3" ] in
            List.iter
              (fun l ->
                match Scheme.eval mach (Printf.sprintf "(%s 9 %s)" name l) with
                | exception Machine.Error msg -> check_str name (name ^ ": circular list") msg
                | v -> Alcotest.failf "(%s 9 %s): expected an error, got %s" name l v)
              lists)
          [ "memq"; "memv"; "member"; "assq"; "assv"; "assoc"; "remq" ];
        (* A match inside the cycle is found before the cycle is seen. *)
        check_str "found in a cycle" "(3 c 1)"
          (Scheme.eval mach "(list (car (memv 3 c3)) (cdr (assq 3 a3)) (car (member 1 c1)))"));
    Alcotest.test_case "million-element lists" `Quick (fun () ->
        let mach = Scheme.create () in
        check_str "remq and member" "(999999 999999 500001 1000000)"
          (Scheme.eval mach
             "(define big (iota 1000000))\n\
              (list (length (remq 7 big)) (car (member 999999 big)) (cadr (memv 500000 big))\n\
             \      (length (remq 'none big)))");
        Machine.dispose mach);
    Alcotest.test_case "guarded-table access loop makes few VM calls" `Quick (fun () ->
        (* The perfbench scheme-guarded-table op (half churn, half probe of
           a 5000-key window over 1021 buckets), driven from Scheme. *)
        let mach = Scheme.create () in
        let per_iter =
          Scheme.eval mach
            "(define tbl (make-guarded-hash-table (lambda (k size) (modulo (car k) size)) 1021))\n\
             (define window (make-vector 5000 #f))\n\
             (define (churn! slot id) (let ([key (cons id 0)]) (vector-set! window slot key) (tbl key id)))\n\
             (define (probe slot) (tbl (vector-ref window slot) #f))\n\
             (let loop ([i 0]) (when (< i 5000) (churn! i i) (loop (+ i 1))))\n\
             (define (vm-calls) (cdr (assq 'vm_calls (gc-counters))))\n\
             (define (drive n)\n\
            \  (let loop ([i 0])\n\
            \    (when (< i n)\n\
            \      (if (= 0 (remainder i 2))\n\
            \          (churn! (modulo (* i 7919) 5000) (+ 5000 i))\n\
            \          (probe (modulo (* i 104729) 5000)))\n\
            \      (loop (+ i 1)))))\n\
             (let ([before (vm-calls)]) (drive 20000) (quotient (- (vm-calls) before) 20000))"
        in
        check (per_iter ^ " VM calls per iteration <= 40") true (int_of_string per_iter <= 40);
        Machine.dispose mach);
  ]

(* Lets and named lets compiled to frame slots and backward jumps. *)
let let_slots =
  [
    t "let in a pending call's operands"
      "(define (f3 a b c) (list a b c)) (f3 1 (let ([x 2]) (f3 x (let ([y 3]) (+ x y)) 4)) 5)"
      "(1 (2 5 4) 5)";
    t "call/cc in a let body, reinstated"
      "(let ([k #f] [n 0])\n\
      \  (let ([r (let ([x 10]) (+ x (call/cc (lambda (c) (set! k c) 1))))])\n\
      \    (set! n (+ n 1))\n\
      \    (if (< n 3) (k n) (list r n))))"
      "(12 3)";
    t "call/cc in a loop, reinstated"
      "(let ([k #f] [trace '()])\n\
      \  (let loop ([i 0])\n\
      \    (if (< i 3)\n\
      \        (begin (call/cc (lambda (c) (if (= i 1) (set! k c))))\n\
      \               (set! trace (cons i trace))\n\
      \               (loop (+ i 1)))))\n\
      \  (if (< (length trace) 5) (k #f) (reverse trace)))"
      "(0 1 2 1 2)";
    t "do closures see their own iteration"
      "(let ([fs '()]) (do ([i 0 (+ i 1)]) ((= i 3)) (set! fs (cons (lambda () i) fs))) (map (lambda (f) (f)) fs))"
      "(2 1 0)";
    (* [i] is assigned, so boxed; the box must be fresh each iteration or
       both closures would read the last value. *)
    t "do closures over an assigned variable"
      "(let ([fs '()]) (do ([i 0 (+ i 1)]) ((> i 2)) (set! fs (cons (lambda () i) fs)) (set! i (+ i 1))) (map (lambda (f) (f)) fs))"
      "(3 1)";
    t "loop values read before any is written"
      "(let lp ([a 1] [b 2] [n 3]) (if (= n 0) (list a b) (lp b a (- n 1))))" "(2 1)";
    t "loop name passed to map" "(let loop ([x 1]) (if (> x 100) x (car (map loop (list (* x 2))))))" "128";
    t "loop name assigned"
      "(let loop ([i 0]) (if (= i 0) (begin (set! loop (lambda (j) (list 'replaced j))) (loop 1)) i))"
      "(replaced 1)";
    t "loop name in a non-tail call" "(let f ([n 4]) (if (= n 0) '() (cons n (f (- n 1)))))" "(4 3 2 1)";
    t "loop exit falls into the next form"
      "(define (lx n) (if (> n 0) (let lp ([i n] [a 0]) (if (= i 0) a (lp (- i 1) (+ a i)))) 'none)) (list (lx 3) (lx 0))"
      "(6 none)";
    Alcotest.test_case "closure-only loop collects" `Quick (fun () ->
        let config = Config.v ~gen0_trigger_words:512 () in
        let mach = Scheme.create ~config () in
        let stats = Heap.stats (Machine.heap mach) in
        let before = stats.Stats.total.Stats.collections in
        check_str "last closure" "9999"
          (Scheme.eval mach "(let loop ([i 0] [f #f]) (if (< i 10000) (loop (+ i 1) (lambda () i)) (f)))");
        check "collections happened" true (stats.Stats.total.Stats.collections > before);
        check "Verify clean" true (Verify.verify (Machine.heap mach) = []);
        Machine.dispose mach);
    Alcotest.test_case "loop jump is a safepoint" `Quick (fun () ->
        (* A loop making only closures, with no call or op to pass a
           safepoint, must still serve the collect request: the handler's
           exception ends it, where a jump without a safepoint would run
           the heap out. *)
        let config = Config.v ~gen0_trigger_words:512 ~max_heap_words:(1 lsl 20) () in
        let mach = Scheme.create ~config () in
        Runtime.set_collect_request_handler (Machine.heap mach) (Some (fun _ -> raise Exit));
        let spin =
          [| Instr.Make_closure { code_id = 0; nfree = 0 }; Instr.Loop 0 |]
        in
        (match
           Machine.run_code mach
             { Instr.name = "spin"; clauses = [ { required = 0; rest = false; frame = 0; instrs = spin } ] }
         with
        | _ -> Alcotest.fail "the loop ended"
        | exception Exit -> ());
        Machine.dispose mach);
    Alcotest.test_case "finished let's value reported" `Quick (fun () ->
        (* The let is done but its clause is not: the cleared slot leaves
           the list to its guardian. *)
        let mach = Scheme.create () in
        check_str "reported" "(payload)"
          (Scheme.eval mach
             "(define g (make-guardian))\n\
              (define (f) (let ([x (list 'payload)]) (g x) #t) (collect) (g))\n\
              (f)");
        Machine.dispose mach);
  ]

let () =
  Alcotest.run "scheme_eval"
    [
      ("basics", basics);
      ("arithmetic", arithmetic);
      ("bindings", bindings);
      ("control", control);
      ("procedures", procedures);
      ("data", data);
      ("continuations", continuations);
      ("quasiquote", quasiquote);
      ("reading", reading);
      ("extended prims", extended_prims);
      ("records", records);
      ("hashtables", hashtables);
      ("gc stress", gc_stress);
      ("output", output);
      ("gc integration", gc_integration);
      ("errors", errors);
      ("overflow", fixnum_overflow);
      ("call path", call_path);
      ("dispatch", dispatch);
      ("list search", list_searches);
      ("let slots", let_slots);
    ]
