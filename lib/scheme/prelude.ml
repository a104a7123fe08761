(** The Scheme prelude: library procedures defined in Scheme itself,
    including the paper's user-level guardian interface (a guardian {e is a
    procedure}: call it with an object to register, with no arguments to
    retrieve) and the paper's transport-guardian implementation, verbatim
    modulo lexical trivia. *)

let source =
  {scheme|
(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caddr p) (car (cddr p)))

(define (list? l)
  (cond [(null? l) #t]
        [(pair? l) (list? (cdr l))]
        [else #f]))

(define (length l)
  (let loop ([l l] [n 0])
    (if (null? l) n (loop (cdr l) (+ n 1)))))

(define (append2 a b)
  (if (null? a) b (cons (car a) (append2 (cdr a) b))))

(define (append . ls)
  (cond [(null? ls) '()]
        [(null? (cdr ls)) (car ls)]
        [else (append2 (car ls) (apply append (cdr ls)))]))

(define (reverse l)
  (let loop ([l l] [acc '()])
    (if (null? l) acc (loop (cdr l) (cons (car l) acc)))))

(define (list-tail l n)
  (if (= n 0) l (list-tail (cdr l) (- n 1))))

(define (list-ref l n) (car (list-tail l n)))

(define (map1 f l)
  (if (null? l) '() (cons (f (car l)) (map1 f (cdr l)))))

(define (map f l . more)
  (if (null? more)
      (map1 f l)
      (let loop ([a l] [b (car more)])
        (if (or (null? a) (null? b))
            '()
            (cons (f (car a) (car b)) (loop (cdr a) (cdr b)))))))

(define (for-each f l)
  (if (null? l)
      (void)
      (begin (f (car l)) (for-each f (cdr l)))))

(define (filter pred l)
  (cond [(null? l) '()]
        [(pred (car l)) (cons (car l) (filter pred (cdr l)))]
        [else (filter pred (cdr l))]))

(define (fold-left f acc l)
  (if (null? l) acc (fold-left f (f acc (car l)) (cdr l))))

(define (iota n)
  (let loop ([i (- n 1)] [acc '()])
    (if (< i 0) acc (loop (- i 1) (cons i acc)))))

(define (abs n) (if (< n 0) (- 0 n) n))
(define (min a b) (if (< a b) a b))
(define (max a b) (if (> a b) a b))
(define (1+ n) (+ n 1))
(define (1- n) (- n 1))
(define (even? n) (= (remainder n 2) 0))
(define (odd? n) (not (even? n)))

(define (vector->list v)
  (let loop ([i (- (vector-length v) 1)] [acc '()])
    (if (< i 0) acc (loop (- i 1) (cons (vector-ref v i) acc)))))

(define (list->vector l)
  (let ([v (make-vector (length l) 0)])
    (let loop ([l l] [i 0])
      (if (null? l)
          v
          (begin (vector-set! v i (car l)) (loop (cdr l) (+ i 1)))))))

;; The paper's user-level guardian interface: guardians are procedures.
;; (make-guardian) -> guardian; (g obj) registers, (g obj rep) registers
;; with a representative (Section 5), (g) retrieves or returns #f.
;; Registry mapping make-guardian closures back to their raw guardian
;; objects, so guardian-stats can accept either form.  Entries are
;; ephemerons keyed by the closure: the registry keeps neither the
;; closure nor (crucially) its guardian alive, so dropping the procedure
;; still cancels the guardian's registrations.  Once the registry has
;; doubled since the last prune, make-guardian drops the entries whose
;; key has died: O(1) amortized per guardian, O(live guardians) space.
(define %guardian-registry '())
(define %guardian-registry-size 0)
(define %guardian-registry-limit 16)

(define (make-guardian)
  (when (>= %guardian-registry-size %guardian-registry-limit)
    (let loop ([r %guardian-registry] [keep '()] [n 0])
      (if (null? r)
          (begin
            (set! %guardian-registry keep)
            (set! %guardian-registry-size n)
            (set! %guardian-registry-limit (max 16 (* 2 n))))
          (if (car (car r))
              (loop (cdr r) (cons (car r) keep) (+ n 1))
              (loop (cdr r) keep n)))))
  (let* ([g (%make-guardian)]
         [proc (case-lambda
                 [() (%guardian-retrieve g)]
                 [(obj) (%guardian-register g obj)]
                 [(obj rep) (%guardian-register-rep g obj rep)])])
    (set! %guardian-registry (cons (ephemeron-cons proc g) %guardian-registry))
    (set! %guardian-registry-size (+ %guardian-registry-size 1))
    proc))

;; Lifecycle metrics as a vector #(registrations resurrections drops polls
;; hits latency-sum latency-max pending).  Accepts a raw guardian object or
;; the procedure returned by make-guardian.
(define (guardian-stats g)
  (if (guardian? g)
      (%guardian-stats g)
      (let loop ([r %guardian-registry])
        (if (null? r)
            (error "guardian-stats: not a guardian")
            (if (eq? (car (car r)) g)
                (%guardian-stats (cdr (car r)))
                (loop (cdr r)))))))

;; Conservative transport guardians, exactly as in the paper (Section 3).
(define (make-transport-guardian)
  (let ([g (make-guardian)])
    (case-lambda
      [(x) (g (weak-cons x 0))]
      [() (let loop ([m (g)])
            (and m
                 (if (car m)
                     (begin (g m) (car m))
                     (loop (g)))))])))

;; Guarded hash tables, exactly as in the paper's Figure 1.  hash takes the
;; key and the table size and must be stable across collections.
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

;; Will executors in the style of Racket, built on guardians: wills become
;; ready when the object is proven inaccessible; (will-execute e) runs one.
(define (make-will-executor)
  ;; The association list holds its objects through weak pairs so the
  ;; executor itself never keeps them alive; the will procedures sit in the
  ;; strong cdr and survive the object's death (the guardian saves the
  ;; object, so the weak car is intact when the will runs).
  (let ([g (make-guardian)]
        [wills '()])  ; list of (weak obj . procs), procs newest first
    (cons
      ;; register
      (lambda (obj proc)
        (let ([a (assq obj wills)])
          (if a
              (set-cdr! a (cons proc (cdr a)))
              (set! wills (cons (weak-cons obj (cons proc '())) wills))))
        (g obj))
      ;; execute: run one ready will, returning (proc obj)'s result or #f
      (lambda ()
        (let ([obj (g)])
          (if obj
              (let ([a (assq obj wills)])
                (if (and a (pair? (cdr a)))
                    (let ([proc (car (cdr a))])
                      (set-cdr! a (cdr (cdr a)))
                      (proc obj))
                    #f))
              #f))))))

(define (will-register we obj proc) ((car we) obj proc))
(define (will-execute we) ((cdr we)))

(define (list-copy l)
  (if (null? l) '() (cons (car l) (list-copy (cdr l)))))

(define (last-pair l)
  (if (pair? (cdr l)) (last-pair (cdr l)) l))

(define (vector-map f v)
  (let ([out (make-vector (vector-length v) 0)])
    (let loop ([i 0])
      (if (= i (vector-length v))
          out
          (begin
            (vector-set! out i (f (vector-ref v i)))
            (loop (+ i 1)))))))

(define (vector-for-each f v)
  (let loop ([i 0])
    (unless (= i (vector-length v))
      (f (vector-ref v i))
      (loop (+ i 1)))))

;; Stable merge sort; less? compares two elements.
(define (sort less? l)
  (define (merge a b)
    (cond [(null? a) b]
          [(null? b) a]
          [(less? (car b) (car a)) (cons (car b) (merge a (cdr b)))]
          [else (cons (car a) (merge (cdr a) b))]))
  (define (split l)
    (if (or (null? l) (null? (cdr l)))
        (cons l '())
        (let ([rest (split (cddr l))])
          (cons (cons (car l) (car rest))
                (cons (cadr l) (cdr rest))))))
  (if (or (null? l) (null? (cdr l)))
      l
      (let ([halves (split l)])
        (merge (sort less? (car halves)) (sort less? (cdr halves))))))

(define (string-join sep parts)
  (cond [(null? parts) ""]
        [(null? (cdr parts)) (car parts)]
        [else (string-append (car parts) sep (string-join sep (cdr parts)))]))

;; read one datum from a string
(define (read-from-string s)
  (let ([p (open-input-string s)])
    (let ([d (read p)])
      (close-input-port p)
      d)))

;; render a value with write into a string
(define (write-to-string v)
  (let ([p (open-output-string)])
    (write v p)
    (let ([s (get-output-string p)])
      (close-output-port p)
      s)))

;; ------------------------------------------------------------------
;; dynamic-wind, with full continuation rerooting: escaping or
;; re-entering a dynamic extent runs the after/before thunks along the
;; path between the two winder stacks.

(define %winders '())
(define %call/cc-prim call-with-current-continuation)

(define (%common-tail x y)
  (let ([lx (length x)] [ly (length y)])
    (let loop ([x (if (> lx ly) (list-tail x (- lx ly)) x)]
               [y (if (> ly lx) (list-tail y (- ly lx)) y)])
      (if (eq? x y) x (loop (cdr x) (cdr y))))))

(define (%do-wind new)
  (let ([tail (%common-tail new %winders)])
    ;; unwind: run afters from the current stack down to the shared tail
    (let unwind ([l %winders])
      (unless (eq? l tail)
        (set! %winders (cdr l))
        ((cdr (car l)))
        (unwind (cdr l))))
    ;; rewind: run befores from the shared tail up to the target stack
    (let rewind ([l new])
      (unless (eq? l tail)
        (rewind (cdr l))
        ((car (car l)))
        (set! %winders l)))))

(define (dynamic-wind before thunk after)
  (before)
  (set! %winders (cons (cons before after) %winders))
  (let ([ans (thunk)])
    (set! %winders (cdr %winders))
    (after)
    ans))

;; call/cc that cooperates with dynamic-wind: the continuation the user
;; receives reroots the winders before jumping.
(define call-with-current-continuation
  (let ([prim %call/cc-prim])
    (lambda (f)
      (prim
        (lambda (k)
          (f (let ([saved %winders])
               (lambda (v)
                 (unless (eq? saved %winders) (%do-wind saved))
                 (k v)))))))))

(define call/cc call-with-current-continuation)

;; Port conveniences built on dynamic-wind: the port is closed however the
;; body exits.
(define (call-with-output-file path proc)
  (let ([p (open-output-file path)])
    (dynamic-wind
      (lambda () (void))
      (lambda () (proc p))
      (lambda () (close-output-port p)))))

(define (call-with-input-file path proc)
  (let ([p (open-input-file path)])
    (dynamic-wind
      (lambda () (void))
      (lambda () (proc p))
      (lambda () (close-input-port p)))))

;; ------------------------------------------------------------------
;; Eq hash tables with the Section 3 rehashing discipline: keys hash by
;; address (eq-hash); a stored collection epoch (gc-count) detects that
;; objects may have moved, triggering a full rehash on the next access.
;; Strong entries; see make-guarded-hash-table for the weak, self-cleaning
;; variant.

(define (make-eq-hashtable)
  ;; representation: #(buckets epoch size)
  (vector (make-vector 32 '()) (gc-count) 0))

(define (%eqht-index key n) (modulo (eq-hash key) n))

(define (%eqht-rehash! ht)
  (let* ([old (vector-ref ht 0)]
         [n (vector-length old)]
         [new (make-vector n '())])
    (let loop ([i 0])
      (unless (= i n)
        (for-each
          (lambda (entry)
            (let ([j (%eqht-index (car entry) n)])
              (vector-set! new j (cons entry (vector-ref new j)))))
          (vector-ref old i))
        (loop (+ i 1))))
    (vector-set! ht 0 new)
    (vector-set! ht 1 (gc-count))))

(define (%eqht-fresh! ht)
  (unless (= (vector-ref ht 1) (gc-count))
    (%eqht-rehash! ht)))

(define (hashtable-set! ht key value)
  (%eqht-fresh! ht)
  (let* ([v (vector-ref ht 0)]
         [i (%eqht-index key (vector-length v))]
         [a (assq key (vector-ref v i))])
    (if a
        (set-cdr! a value)
        (begin
          (vector-set! v i (cons (cons key value) (vector-ref v i)))
          (vector-set! ht 2 (+ (vector-ref ht 2) 1))))))

(define (hashtable-ref ht key default)
  (%eqht-fresh! ht)
  (let* ([v (vector-ref ht 0)]
         [a (assq key (vector-ref v (%eqht-index key (vector-length v))))])
    (if a (cdr a) default)))

(define (hashtable-contains? ht key)
  (%eqht-fresh! ht)
  (let ([v (vector-ref ht 0)])
    (if (assq key (vector-ref v (%eqht-index key (vector-length v)))) #t #f)))

(define (hashtable-delete! ht key)
  (%eqht-fresh! ht)
  (let* ([v (vector-ref ht 0)]
         [i (%eqht-index key (vector-length v))]
         [a (assq key (vector-ref v i))])
    (when a
      (vector-set! v i (remq a (vector-ref v i)))
      (vector-set! ht 2 (- (vector-ref ht 2) 1)))))

(define (hashtable-size ht) (vector-ref ht 2))
|scheme}
