(* Experiment E10: the paper's Section 3 REPL transcripts and Scheme-level
   guardian examples, run through the VM and compared against the printed
   results in the paper. *)

open Gbc_scheme

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Each test gets a fresh machine: the transcripts rely on global state. *)
let fresh () = Scheme.create ()

let ev m src = Scheme.eval m src

(* The transcripts say "at some point after this binding is nullified";
   a full collection is that point in our deterministic setting. *)
let gc = "(collect 4)"

let transcript_basic () =
  let m = fresh () in
  ignore (ev m "(define G (make-guardian))");
  ignore (ev m "(define x (cons 'a 'b))");
  ignore (ev m "(G x)");
  check_str "(G) before drop" "#f" (ev m "(G)");
  ignore (ev m "(set! x #f)");
  ignore (ev m gc);
  check_str "(G) after drop" "(a . b)" (ev m "(G)");
  check_str "(G) exhausted" "#f" (ev m "(G)")

let transcript_double_registration () =
  let m = fresh () in
  ignore (ev m "(define G (make-guardian)) (define x (cons 'a 'b)) (G x) (G x) (set! x #f)");
  ignore (ev m gc);
  check_str "first" "(a . b)" (ev m "(G)");
  check_str "second" "(a . b)" (ev m "(G)");
  check_str "third" "#f" (ev m "(G)")

let transcript_two_guardians () =
  let m = fresh () in
  ignore
    (ev m
       "(define G (make-guardian)) (define H (make-guardian))\n        (define x (cons 'a 'b)) (G x) (H x) (set! x #f)");
  ignore (ev m gc);
  check_str "(G)" "(a . b)" (ev m "(G)");
  check_str "(H)" "(a . b)" (ev m "(H)")

let transcript_guardian_in_guardian () =
  let m = fresh () in
  ignore
    (ev m
       "(define G (make-guardian)) (define H (make-guardian))\n        (define x (cons 'a 'b)) (G H) (H x) (set! x #f) (set! H #f)");
  ignore (ev m gc);
  check_str "((G))" "(a . b)" (ev m "((G))")

let transcript_rep_interface () =
  (* Section 5: (g obj rep) returns rep instead of obj. *)
  let m = fresh () in
  ignore
    (ev m
       "(define G (make-guardian)) (define x (cons 'big 'object))\n        (G x 'small-agent) (set! x #f)");
  ignore (ev m gc);
  check_str "agent returned" "small-agent" (ev m "(G)")

let accessible_never_returned () =
  let m = fresh () in
  ignore (ev m "(define G (make-guardian)) (define x (cons 1 2)) (G x)");
  ignore (ev m gc);
  ignore (ev m gc);
  check_str "still #f" "#f" (ev m "(G)");
  check_str "x intact" "(1 . 2)" (ev m "x")

let saved_object_usable () =
  (* "objects that have been retrieved from a guardian have no special
     status": mutate it, re-register it, retrieve it again. *)
  let m = fresh () in
  ignore (ev m "(define G (make-guardian)) (G (cons 1 2))");
  ignore (ev m gc);
  ignore (ev m "(define y (G))");
  check_str "mutable" "(99 . 2)" (ev m "(set-car! y 99) y");
  ignore (ev m "(G y) (set! y #f)");
  ignore (ev m gc);
  check_str "again" "(99 . 2)" (ev m "(G)")

let weak_pairs_interop () =
  let m = fresh () in
  ignore (ev m "(define G (make-guardian)) (define x (cons 'a 'b))");
  ignore (ev m "(define wp (weak-cons x 'payload)) (G x) (set! x #f)");
  ignore (ev m gc);
  (* Guardian saved x, so the weak car is intact and eq to the saved one. *)
  check_str "weak car intact" "#t" (ev m "(define saved (G)) (eq? (car wp) saved)");
  ignore (ev m "(set! saved #f)");
  ignore (ev m gc);
  check_str "now broken" "#f" (ev m "(car wp)")

let transport_guardian_paper_code () =
  let m = fresh () in
  ignore (ev m "(define tg (make-transport-guardian)) (define x (cons 1 2)) (tg x)");
  check_str "nothing before gc" "#f" (ev m "(tg)");
  ignore (ev m "(collect 0)");
  check_str "transported" "#t" (ev m "(eq? (tg) x)");
  check_str "once per collection" "#f" (ev m "(tg)");
  ignore (ev m "(collect 0)");
  (* x was promoted to generation 1 by the first collection; the re-registered
     marker was promoted along with it, so a second gen-0 collection that
     does not move x reports nothing... *)
  ignore (ev m "(collect 0)");
  check_str "old object quiet under minor gc" "#f" (ev m "(tg)");
  (* ...but a collection of its generation reports it again. *)
  ignore (ev m "(collect 4)");
  check_str "reported on full gc" "#t" (ev m "(eq? (tg) x)");
  (* Dead objects are dropped silently. *)
  ignore (ev m "(set! x #f)");
  ignore (ev m "(collect 4)");
  check_str "dead dropped" "#f" (ev m "(tg)")

let guarded_hash_table_figure_1 () =
  let m = fresh () in
  ignore
    (ev m
       {|
(define make-guarded-hash-table
  (lambda (hash size)
    (let ([g (make-guardian)]
          [v (make-vector size '())])
      (lambda (key value)
        (let loop ([z (g)])
          (if z
              (let ([h (hash z size)])
                (let ([bucket (vector-ref v h)])
                  (vector-set! v h (remq (assq z bucket) bucket))
                  (loop (g))))
              (void)))
        (let ([h (hash key size)])
          (let ([bucket (vector-ref v h)])
            (let ([a (assq key bucket)])
              (if a
                  (cdr a)
                  (let ([a (weak-cons key value)])
                    (vector-set! v h (cons a bucket))
                    (g key)
                    (cdr a))))))))))
(define tbl (make-guarded-hash-table (lambda (k size) (modulo (car k) size)) 16))
(define k1 (cons 1 'one))
(define k2 (cons 2 'two))
|});
  check_str "insert k1" "v1" (ev m "(tbl k1 'v1)");
  check_str "insert k2" "v2" (ev m "(tbl k2 'v2)");
  check_str "k1 present" "v1" (ev m "(tbl k1 'other)");
  ignore (ev m "(set! k1 #f)");
  ignore (ev m gc);
  (* Access expunges k1's association; k2 is still there. *)
  check_str "k2 survives expunge" "v2" (ev m "(tbl k2 'x)");
  (* A fresh key with k1's old hash gets a fresh entry. *)
  check_str "k1 slot reusable" "v1b" (ev m "(define k1b (cons 1 'one)) (tbl k1b 'v1b)")

let guarded_ports_paper_code () =
  let m = fresh () in
  ignore
    (ev m
       {|
(define port-guardian (make-guardian))
(define close-dropped-ports
  (lambda ()
    (let ([p (port-guardian)])
      (if p
          (begin
            (if (output-port? p)
                (begin
                  (flush-output-port p)
                  (close-output-port p))
                (close-input-port p))
            (close-dropped-ports))
          (void)))))
(define guarded-open-input-file
  (lambda (pathname)
    (close-dropped-ports)
    (let ([p (open-input-file pathname)])
      (port-guardian p)
      p)))
(define guarded-open-output-file
  (lambda (pathname)
    (close-dropped-ports)
    (let ([p (open-output-file pathname)])
      (port-guardian p)
      p)))
(define guarded-exit
  (lambda ()
    (close-dropped-ports)))
|});
  ignore (ev m "(define p (guarded-open-output-file \"paper.txt\")) (display \"unflushed\" p)");
  ignore (ev m "(set! p #f)");
  ignore (ev m gc);
  ignore (ev m "(define q (guarded-open-output-file \"other.txt\"))");
  let vfs = Gbc.Ctx.vfs (Machine.ctx m) in
  check_str "dropped port flushed" "unflushed" (Gbc.Vfs.read_file vfs "paper.txt");
  Alcotest.(check int) "only q open" 1 (Gbc.Vfs.open_count vfs);
  ignore (ev m "(set! q #f)");
  ignore (ev m gc);
  ignore (ev m "(guarded-exit)");
  Alcotest.(check int) "exit closes the rest" 0 (Gbc.Vfs.open_count vfs)

let collect_request_handler_idiom () =
  (* The paper's idiom: install a handler that collects and then runs
     close-dropped-ports — from Scheme. *)
  let m = fresh () in
  ignore
    (ev m
       {|
(define port-guardian (make-guardian))
(define closed-count 0)
(define close-dropped-ports
  (lambda ()
    (let ([p (port-guardian)])
      (if p
          (begin
            (set! closed-count (+ closed-count 1))
            (if (output-port? p)
                (begin (flush-output-port p) (close-output-port p))
                (close-input-port p))
            (close-dropped-ports))
          (void)))))
(collect-request-handler
  (lambda ()
    (collect)
    (close-dropped-ports)))
|});
  (* Open and drop ports, generating enough garbage to trigger collect
     requests at safepoints. *)
  ignore
    (ev m
       {|
(let loop ([i 0])
  (unless (= i 20)
    (let ([p (open-output-file (string-append "f" (number->string i)))])
      (port-guardian p)
      (display "data" p))
    (let churn ([j 0])
      (unless (= j 3000) (cons j j) (churn (+ j 1))))
    (loop (+ i 1))))
|});
  check "handler closed dropped ports" true (int_of_string (ev m "closed-count") > 0);
  let vfs = Gbc.Ctx.vfs (Machine.ctx m) in
  check "descriptors bounded" true (Gbc.Vfs.open_count vfs < 20)

let prelude_guarded_hash_table () =
  (* Figure 1 is also a prelude library function. *)
  let m = fresh () in
  ignore
    (ev m
       "(define tbl (make-guarded-hash-table (lambda (k size) (modulo (car k) size)) 8))\n\
        (define k1 (cons 1 'a)) (define k2 (cons 2 'b))");
  check_str "insert" "one" (ev m "(tbl k1 'one)");
  check_str "existing" "one" (ev m "(tbl k1 'other)");
  check_str "insert 2" "two" (ev m "(tbl k2 'two)");
  ignore (ev m "(set! k1 #f)");
  ignore (ev m gc);
  check_str "k2 survives" "two" (ev m "(tbl k2 'x)")

let ephemeron_prims () =
  let m = fresh () in
  ignore (ev m "(define k (cons 1 2)) (define e (ephemeron-cons k (cons k 'payload)))");
  check_str "ephemeron?" "#t" (ev m "(ephemeron-pair? e)");
  check_str "pair? is true" "#t" (ev m "(pair? e)");
  check_str "not weak-pair?" "#f" (ev m "(weak-pair? e)");
  ignore (ev m gc);
  check_str "key intact while live" "#t" (ev m "(eq? (car e) k)");
  check_str "value intact" "payload" (ev m "(cdr (cdr e))");
  (* Drop the key: despite the value referencing it, both break. *)
  ignore (ev m "(set! k #f)");
  ignore (ev m gc);
  check_str "key broken" "#f" (ev m "(car e)");
  check_str "value broken" "#f" (ev m "(cdr e)")

let scheme_will_executors () =
  let m = fresh () in
  ignore
    (ev m
       "(define we (make-will-executor))\n\
        (define log '())\n\
        (define x (cons 'precious 'resource))\n\
        (will-register we x (lambda (obj) (set! log (cons (car obj) log)) 'ran))");
  check_str "not ready while alive" "#f" (ev m "(will-execute we)");
  ignore (ev m "(set! x #f)");
  ignore (ev m gc);
  check_str "runs with the saved object" "ran" (ev m "(will-execute we)");
  check_str "will saw contents" "(precious)" (ev m "log");
  check_str "only once" "#f" (ev m "(will-execute we)")

let scheme_will_multiple () =
  let m = fresh () in
  ignore
    (ev m
       "(define we (make-will-executor))\n\
        (define order '())\n\
        (define x (cons 1 2))\n\
        (will-register we x (lambda (obj) (set! order (cons 'first order))))\n\
        (will-register we x (lambda (obj) (set! order (cons 'second order))))\n\
        (set! x #f)");
  ignore (ev m gc);
  ignore (ev m "(will-execute we)");
  ignore (ev m "(will-execute we)");
  (* newest first, like Racket *)
  check_str "order" "(first second)" (ev m "order")

let cancel_by_dropping_guardian () =
  let m = fresh () in
  ignore (ev m "(define G (make-guardian)) (G (cons 1 2)) (G (cons 3 4)) (set! G #f)");
  ignore (ev m gc);
  (* Nothing observable: just ensure the system survives and the objects
     were reclaimed (no resurrections recorded). *)
  let stats = Gbc_runtime.Heap.stats (Machine.heap m) in
  Alcotest.(check int) "no resurrections" 0
    stats.Gbc_runtime.Stats.last.Gbc_runtime.Stats.guardian_resurrections

let dropped_guardians_leave_the_registry () =
  (* make-guardian's registry drops the entries of dead guardians, so
     neither its length nor the live heap grows with the number of
     guardians ever made. *)
  let m = fresh () in
  let h = Machine.heap m in
  ignore (ev m gc);
  let before = Gbc_runtime.Heap.live_words h in
  ignore (ev m "(let loop ([i 0]) (when (< i 20000) (make-guardian) (loop (+ i 1))))");
  ignore (ev m gc);
  let grown = Gbc_runtime.Heap.live_words h - before in
  let entries = int_of_string (ev m "(length %guardian-registry)") in
  (* Unpruned, the registry keeps all 20 000 entries, 4 words each. *)
  check "registry pruned" true (entries < 5000);
  check "under a word per guardian" true (grown < 20000);
  (* guardian-stats still takes both forms. *)
  ignore (ev m "(define G (make-guardian)) (G (cons 1 2))");
  check_str "procedure" "1" (ev m "(vector-ref (guardian-stats G) 0)");
  check_str "raw guardian" "0" (ev m "(vector-ref (guardian-stats (%make-guardian)) 0)")

let () =
  Alcotest.run "scheme_guardians"
    [
      ( "paper transcripts (E10)",
        [
          Alcotest.test_case "basic" `Quick transcript_basic;
          Alcotest.test_case "double registration" `Quick transcript_double_registration;
          Alcotest.test_case "two guardians" `Quick transcript_two_guardians;
          Alcotest.test_case "guardian in guardian" `Quick transcript_guardian_in_guardian;
          Alcotest.test_case "rep interface (§5)" `Quick transcript_rep_interface;
          Alcotest.test_case "accessible never returned" `Quick accessible_never_returned;
          Alcotest.test_case "no special status" `Quick saved_object_usable;
          Alcotest.test_case "cancel by dropping" `Quick cancel_by_dropping_guardian;
        ] );
      ( "weak interop",
        [ Alcotest.test_case "weak pairs + guardians" `Quick weak_pairs_interop ] );
      ( "paper code",
        [
          Alcotest.test_case "transport guardian" `Quick transport_guardian_paper_code;
          Alcotest.test_case "Figure 1 hash table" `Quick guarded_hash_table_figure_1;
          Alcotest.test_case "guarded ports" `Quick guarded_ports_paper_code;
          Alcotest.test_case "collect-request-handler" `Quick collect_request_handler_idiom;
        ] );
      ( "extensions in scheme",
        [
          Alcotest.test_case "prelude guarded table" `Quick prelude_guarded_hash_table;
          Alcotest.test_case "ephemeron prims" `Quick ephemeron_prims;
          Alcotest.test_case "will executors" `Quick scheme_will_executors;
          Alcotest.test_case "multiple wills" `Quick scheme_will_multiple;
          Alcotest.test_case "dropped guardians leave the registry" `Quick
            dropped_guardians_leave_the_registry;
        ] );
    ]
