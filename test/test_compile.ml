(* The compiler: structural properties of the emitted bytecode — tail
   calls, assignment conversion (boxing), closure capture, clause
   selection — plus the disassembler. *)

open Gbc_scheme

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = lazy (Scheme.create ())

(* Compile one datum on a scratch machine and return every code block it
   produced, innermost last. *)
let compile_codes src =
  let m = Lazy.force machine in
  let before = ref 0 in
  (* count codes by compiling and diffing ids *)
  let linker = Machine.linker m in
  let d = Reader.read_one src in
  let codes = Compile.compile_toplevel linker d in
  ignore before;
  codes

(* All instructions of all clauses of all code blocks reachable from the
   top-level blocks (following Make_closure). *)
let all_instrs src =
  let m = Lazy.force machine in
  let codes = compile_codes src in
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec walk (code : Instr.code) =
    List.iter
      (fun (c : Instr.clause) ->
        Array.iter
          (fun i ->
            out := i :: !out;
            match i with
            | Instr.Make_closure { code_id; _ } ->
                if not (Hashtbl.mem seen code_id) then begin
                  Hashtbl.add seen code_id ();
                  walk (Machine.code m code_id)
                end
            | _ -> ())
          c.Instr.instrs)
      code.Instr.clauses
  in
  List.iter walk codes;
  List.rev !out

let count pred l = List.length (List.filter pred l)

let is_tail_call = function Instr.Tail_call _ -> true | _ -> false
let is_call = function Instr.Call _ -> true | _ -> false
let is_box = function Instr.Box_local _ -> true | _ -> false
let is_unbox = function Instr.Unbox -> true | _ -> false
let is_set_box = function Instr.Local_set_box _ | Instr.Free_set_box _ -> true | _ -> false

(* An open-coded primitive application in tail position or not. *)
let is_op ~tail = function Instr.Op o -> o.tail = tail | _ -> false

let test_tail_call_in_loop () =
  let instrs = all_instrs "(define (loop n) (if (zero? n) 'done (loop (- n 1))))" in
  check "self call is a tail call" true (count is_tail_call instrs >= 1);
  (* zero? and (- n 1) are non-tail open-coded primitive calls *)
  check "tests are non-tail" true (count (is_op ~tail:false) instrs = 2)

let test_non_tail_recursion () =
  let instrs = all_instrs "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))" in
  (* the recursive call sits under +: it must NOT be a tail call; the
     outer (+ ...) application, open-coded, is the only tail call *)
  check "+ application is the only tail call" true
    (count is_tail_call instrs = 0 && count (is_op ~tail:true) instrs = 1);
  check "recursive call is a plain call" true (count is_call instrs = 1)

let test_boxing_only_when_assigned () =
  let boxed = all_instrs "(define (f x) (set! x 1) x)" in
  check "assigned param boxed" true (count is_box boxed = 1);
  check "set! via box" true (count is_set_box boxed = 1);
  check "read via unbox" true (count is_unbox boxed >= 1);
  let unboxed = all_instrs "(define (g x) (+ x x))" in
  check "unassigned param not boxed" true (count is_box unboxed = 0);
  check "no unbox for plain vars" true (count is_unbox unboxed = 0)

let test_capture_shares_box () =
  (* A captured assigned variable must be captured as its box: both the
     inner closure and the outer frame see updates. *)
  let instrs =
    all_instrs
      "(define (counter) (let ([n 0]) (lambda () (set! n (+ n 1)) n)))"
  in
  check "box created" true (count is_box instrs >= 1);
  check "free set through box" true
    (count (function Instr.Free_set_box _ -> true | _ -> false) instrs >= 1)

let test_case_lambda_clauses () =
  let m = Lazy.force machine in
  let codes =
    Compile.compile_toplevel (Machine.linker m)
      (Reader.read_one "(case-lambda [() 0] [(a) a] [(a . rest) rest])")
  in
  (* find the Make_closure and inspect its code *)
  let rec find_closure = function
    | [] -> None
    | (code : Instr.code) :: rest -> (
        let found =
          List.find_map
            (fun (c : Instr.clause) ->
              Array.fold_left
                (fun acc i ->
                  match (acc, i) with
                  | None, Instr.Make_closure { code_id; _ } -> Some code_id
                  | acc, _ -> acc)
                None c.Instr.instrs)
            code.Instr.clauses
        in
        match found with Some id -> Some (Machine.code m id) | None -> find_closure rest)
  in
  match find_closure codes with
  | None -> Alcotest.fail "no closure emitted"
  | Some code ->
      check_int "three clauses" 3 (List.length code.Instr.clauses);
      let arities =
        List.map (fun (c : Instr.clause) -> (c.Instr.required, c.Instr.rest)) code.Instr.clauses
      in
      Alcotest.(check (list (pair int bool)))
        "arities" [ (0, false); (1, false); (1, true) ] arities

let is_closure = function Instr.Make_closure _ -> true | _ -> false
let is_loop = function Instr.Loop _ -> true | _ -> false

(* A let is frame slots; a named let whose name is only tail-applied is a
   backward jump; one whose name escapes stays a closure. *)
let test_let_slots_and_loops () =
  let let_instrs = all_instrs "(define (sq1 x) (let ([y (+ x 1)]) (* y y)))" in
  check "let makes no closure" true (count is_closure let_instrs = 1);
  check "let makes no call" true (count is_call let_instrs = 0);
  let loop = all_instrs "(define (sum-to n) (let lp ([i 0] [a 0]) (if (> i n) a (lp (+ i 1) (+ a i)))))" in
  check_int "loop: one backward jump" 1 (count is_loop loop);
  check_int "loop: no closure but sum-to's" 1 (count is_closure loop);
  let do_loop = all_instrs "(define (fill v) (do ([i 0 (+ i 1)]) ((= i 3) v) (vector-set! v i i)))" in
  check_int "do: one backward jump" 1 (count is_loop do_loop);
  List.iter
    (fun src ->
      let instrs = all_instrs src in
      check (src ^ ": a closure") true (count is_closure instrs >= 2);
      check (src ^ ": no jump") true (count is_loop instrs = 0))
    [
      "(define (e1) (let loop ([x 1]) (if (> x 100) x (car (map loop (list (* x 2)))))))";
      "(define (e2) (let loop ([i 0]) (if (= i 0) (begin (set! loop car) (loop 1)) i)))";
      "(define (e3 n) (let f ([n n]) (if (= n 0) '() (cons n (f (- n 1))))))";
      "(define (e4) (let loop ([i 0]) (if (= i 0) (loop 1 2) i)))";
    ]

let test_constants_vs_immediates () =
  (* Small literals inline as Imm; structured ones go to the constants
     table. *)
  let imm = all_instrs "42" in
  check "fixnum inline" true
    (List.exists (function Instr.Imm _ -> true | _ -> false) imm);
  check "no const entry" true
    (not (List.exists (function Instr.Const _ -> true | _ -> false) imm));
  let const = all_instrs "'(a b c)" in
  check "list literal via constants" true
    (List.exists (function Instr.Const _ -> true | _ -> false) const)

let test_disassembler_output () =
  let m = Lazy.force machine in
  ignore (Machine.eval_string m "(define (dtest x) (+ x 1))");
  let out = Scheme.eval_output m "(disassemble dtest)" in
  let contains needle =
    let nh = String.length out and nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub out i nn = needle || loop (i + 1)) in
    loop 0
  in
  check "names the code" true (contains "dtest");
  check "shows arity" true (contains "1 arg");
  check "shows a tail call" true (contains "tailop +");
  check "shows locals" true (contains "local 0");
  let prim_out = Scheme.eval_output m "(disassemble car)" in
  let contains_prim =
    let nh = String.length prim_out in
    let needle = "primitive" in
    let nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub prim_out i nn = needle || loop (i + 1)) in
    loop 0
  in
  check "primitives identified" true contains_prim;
  (match Machine.code m max_int with
  | _ -> Alcotest.fail "a code past the table"
  | exception Machine.Error msg -> Alcotest.(check bool) msg true (String.starts_with ~prefix:"closure: " msg));
  (* A continuation is a procedure without code to show. *)
  match Scheme.eval m "(disassemble (%call/cc-prim (lambda (k) k)))" with
  | exception Machine.Error msg ->
      Machine.reset m;
      Alcotest.(check string) "continuation" "disassemble: expected a closure" msg
  | v -> Alcotest.failf "disassembled a continuation: %s" v

(* One instruction of every opcode, with the bytes the scheme/codes
   section holds for it and the text [disassemble] prints.  The first byte
   of each is the opcode's number in the image format, which never
   changes: new opcodes are appended. *)
let every_opcode =
  [
    (Instr.Const 3, "const 3", "000300000000000000");
    (Instr.Imm (-2), "imm -2", "01feffffffffffffff");
    (Instr.Local_ref 1, "local 1", "020100000000000000");
    (Instr.Free_ref 2, "free 2", "030200000000000000");
    (Instr.Unbox, "unbox", "04");
    (Instr.Local_set_box 1, "local-set-box 1", "050100000000000000");
    (Instr.Free_set_box 0, "free-set-box 0", "060000000000000000");
    (Instr.Global_ref 7, "global 7", "070700000000000000");
    (Instr.Global_set 8, "global-set 8", "080800000000000000");
    (Instr.Global_define 9, "global-define 9", "090900000000000000");
    (Instr.Push, "push", "0a");
    (Instr.Box_local 1, "box-local 1", "0b0100000000000000");
    ( Instr.Make_closure { code_id = 4; nfree = 2 },
      "closure 4/2",
      "0c04000000000000000200000000000000" );
    (Instr.Branch_false 10, "brf 10", "0d0a00000000000000");
    (Instr.Jump 11, "jmp 11", "0e0b00000000000000");
    (Instr.Call 2, "call 2", "0f0200000000000000");
    (Instr.Tail_call 3, "tailcall 3", "100300000000000000");
    (Instr.Return, "ret", "11");
    (Instr.Halt, "halt", "12");
    ( Instr.Op { op = Instr.ops.(3); cell = 12; tail = true },
      "tailop < 12",
      "130c000000000000000700000000000000" );
    ( Instr.Op { op = Instr.ops.(8); cell = 13; tail = false },
      "op car 13",
      "130d000000000000001000000000000000" );
    (Instr.Local_set 2, "local-set 2", "140200000000000000");
    ( Instr.Local_clear { slot = 1; count = 2 },
      "local-clear 1/2",
      "1501000000000000000200000000000000" );
    ( Instr.Local_pop { slot = 0; count = 3 },
      "local-pop 0/3",
      "1600000000000000000300000000000000" );
    (Instr.Loop 6, "loop 6", "170600000000000000");
  ]

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_codec_and_printer_pinned () =
  let opcodes = List.sort_uniq compare (List.map (fun (_, _, h) -> String.sub h 0 2) every_opcode) in
  check_int "every opcode" 24 (List.length opcodes);
  let all = Buffer.create 256 in
  List.iter
    (fun (i, text, bytes) ->
      let b = Buffer.create 17 in
      Scheme_image.encode_instr b i;
      Buffer.add_buffer all b;
      Alcotest.(check string) (text ^ ": bytes") bytes (hex (Buffer.contents b));
      Alcotest.(check string) (text ^ ": text") text (Format.asprintf "%a" Instr.pp_instr i))
    every_opcode;
  (* A code's section ends with its instructions' bytes, and the decoder
     reads them back. *)
  let instrs = Array.of_list (List.map (fun (i, _, _) -> i) every_opcode) in
  let code =
    { Instr.name = "every"; clauses = [ { Instr.required = 0; rest = false; frame = 0; instrs } ] }
  in
  let section = Scheme_image.encode_codes [| code |] in
  check "section ends with the stream" true
    (String.ends_with ~suffix:(Buffer.contents all) section);
  check "decode inverts encode" true (Scheme_image.decode_codes section = [| code |])

let test_branch_targets_valid () =
  (* Every jump target must be a valid instruction index; every clause ends
     in Return/Halt/Jump/Tail_call. *)
  List.iter
    (fun src ->
      let m = Lazy.force machine in
      let codes = Compile.compile_toplevel (Machine.linker m) (Reader.read_one src) in
      let rec check_code (code : Instr.code) =
        List.iter
          (fun (c : Instr.clause) ->
            let n = Array.length c.Instr.instrs in
            Array.iter
              (fun i ->
                match i with
                | Instr.Branch_false t | Instr.Jump t ->
                    check "target in range" true (t >= 0 && t <= n)
                | Instr.Make_closure { code_id; _ } ->
                    check_code (Machine.code m code_id)
                | _ -> ())
              c.Instr.instrs;
            match c.Instr.instrs.(n - 1) with
            | Instr.Return | Instr.Halt | Instr.Jump _ | Instr.Tail_call _ -> ()
            | i ->
                Alcotest.failf "clause falls off the end with %s"
                  (Format.asprintf "%a" Instr.pp_instr i))
          code.Instr.clauses
      in
      List.iter check_code codes)
    [
      "(if 1 2 3)";
      "(cond [#f 1] [2] [else 3])";
      "(define (f x) (case x [(1) 'a] [(2 3) 'b] [else 'c]))";
      "(define (g l) (let loop ([l l]) (if (null? l) '() (loop (cdr l)))))";
      "(and 1 2 (or 3 4) (when 5 6))";
    ]

(* --- optimizer -------------------------------------------------------- *)

let imm_value = function Instr.Imm w -> Some w | _ -> None

let test_constant_folding () =
  let open Gbc_runtime in
  let folded src expect =
    let instrs = all_instrs src in
    (* the whole expression must reduce to one Imm + Halt *)
    check "no calls left" true (count is_call instrs = 0 && count is_tail_call instrs = 0);
    match List.find_map imm_value instrs with
    | Some w -> check_int src expect (Word.to_fixnum w)
    | None -> Alcotest.failf "%s: no immediate emitted" src
  in
  folded "(+ 1 2 3)" 6;
  folded "(* 6 7)" 42;
  folded "(- 10 4)" 6;
  folded "(- 5)" (-5);
  folded "(min 3 9)" 3;
  folded "(abs -8)" 8;
  folded "(+ (* 2 3) (- 10 4))" 12;
  folded "(if (< 1 2) 10 20)" 10;
  folded "(if (> 1 2) 10 20)" 20;
  folded "(if (= 1 1 1) (+ 1 1) 0)" 2

let test_folding_respects_shadowing () =
  (* (let ([+ f]) (+ 1 2)) must NOT fold. *)
  let instrs = all_instrs "(define (sh f) (let ([+ f]) (+ 1 2)))" in
  (* The let itself is frame slots: the one call left is the shadowed +,
     neither folded nor open-coded. *)
  check_int "call survives" 1 (count is_tail_call instrs + count is_call instrs);
  check "not open-coded" true (not (List.exists (function Instr.Op _ -> true | _ -> false) instrs));
  (* semantics double-check *)
  let m = Lazy.force machine in
  Alcotest.(check string) "shadowed" "shadowed"
    (Scheme.eval m "(let ([+ (lambda (a b) 'shadowed)]) (+ 1 2))")

let test_folding_preserves_errors () =
  (* division and overflow-prone operators are never folded *)
  let instrs = all_instrs "(quotient 1 0)" in
  check "quotient not folded" true (count is_call instrs + count is_tail_call instrs >= 1);
  let m = Lazy.force machine in
  (match Scheme.eval m "(quotient 1 0)" with
  | exception Machine.Error _ -> ()
  | v -> Alcotest.failf "expected error, got %s" v)

let test_folding_refuses_overflow () =
  (* A product that wraps OCaml's ints back into the fixnum range, and
     chains whose partial result leaves it, are left to the VM, which
     raises the overflow error. *)
  let m = Lazy.force machine in
  List.iter
    (fun (src, msg) ->
      let instrs = all_instrs src in
      check (src ^ " not folded") true (count is_call instrs + count is_tail_call instrs >= 1);
      match Scheme.eval m src with
      | exception Machine.Error got -> Alcotest.(check string) src msg got
      | v -> Alcotest.failf "%s: expected an error, got %s" src v)
    [
      ("(* 4611686018427387 1000000)", "*: fixnum overflow");
      ("(+ 2305843009213693951 1 -1)", "+: fixnum overflow");
      ("(- -2305843009213693952 1 -1)", "-: fixnum overflow");
    ]

let test_dead_branch_elimination () =
  (* The untaken branch's code must not be emitted. *)
  let instrs = all_instrs "(if #t 'yes (this-is-never-compiled))" in
  check "dead global ref gone" true
    (not (List.exists (function Instr.Global_ref _ -> true | _ -> false) instrs))

let test_begin_cleanup () =
  let open Gbc_runtime in
  let instrs = all_instrs "(define (bg) (begin 1 'x (begin 2 3) 42))" in
  (* All effect-free prefix forms are dropped: the only fixnum immediate
     left is the final 42 (the define wrapper also emits a void). *)
  let fixnum_imms =
    List.filter_map imm_value instrs
    |> List.filter Word.is_fixnum |> List.map Word.to_fixnum
  in
  Alcotest.(check (list int)) "only the tail survives" [ 42 ] fixnum_imms

let () =
  Alcotest.run "compile"
    [
      ( "codegen",
        [
          Alcotest.test_case "tail call in loop" `Quick test_tail_call_in_loop;
          Alcotest.test_case "non-tail recursion" `Quick test_non_tail_recursion;
          Alcotest.test_case "boxing when assigned" `Quick test_boxing_only_when_assigned;
          Alcotest.test_case "capture shares box" `Quick test_capture_shares_box;
          Alcotest.test_case "case-lambda clauses" `Quick test_case_lambda_clauses;
          Alcotest.test_case "let slots and loops" `Quick test_let_slots_and_loops;
          Alcotest.test_case "constants vs immediates" `Quick test_constants_vs_immediates;
          Alcotest.test_case "branch targets" `Quick test_branch_targets_valid;
        ] );
      ( "disassembler",
        [
          Alcotest.test_case "output" `Quick test_disassembler_output;
          Alcotest.test_case "codec and printer pinned" `Quick test_codec_and_printer_pinned;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "respects shadowing" `Quick test_folding_respects_shadowing;
          Alcotest.test_case "preserves errors" `Quick test_folding_preserves_errors;
          Alcotest.test_case "refuses overflow" `Quick test_folding_refuses_overflow;
          Alcotest.test_case "dead branches" `Quick test_dead_branch_elimination;
          Alcotest.test_case "begin cleanup" `Quick test_begin_cleanup;
        ] );
    ]
