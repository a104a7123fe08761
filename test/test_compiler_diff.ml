(* Differential testing of the Scheme compiler + VM against a tiny
   reference interpreter.

   A type-directed generator produces random, closed, terminating programs
   (integers, booleans, strings, integer lists; let/named let/do/set!/if/
   begin/lambda application/arithmetic/comparisons/list and string
   operations).  Lets land in operand positions of pending calls, and
   named lets both as jump-compiled loops (self-call in tail position)
   and as closures (self-call under [+]).  Each
   program is evaluated both by the bytecode VM on the simulated heap and
   by a direct OCaml interpreter over pure values; the printed results must
   agree. *)

module S = Gbc_scheme.Sexpr
module Scheme = Gbc_scheme.Scheme
module Machine = Gbc_scheme.Machine

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                               *)

type rv =
  | RInt of int
  | RBool of bool
  | RStr of string
  | RList of rv list
  | RClos of string * S.t * env
  | RProc of (rv list -> rv)  (** a named let's loop *)

and env = (string * rv ref) list

exception Ref_error of string

let rec rv_print = function
  | RInt n -> string_of_int n
  | RBool true -> "#t"
  | RBool false -> "#f"
  | RStr s -> Printf.sprintf "%S" s
  | RList l -> "(" ^ String.concat " " (List.map rv_print l) ^ ")"
  | RClos _ | RProc _ -> "#<procedure>"

let as_int = function RInt n -> n | _ -> raise (Ref_error "int expected")
let as_list = function RList l -> l | _ -> raise (Ref_error "list expected")
let as_str = function RStr s -> s | _ -> raise (Ref_error "string expected")
let truthy = function RBool false -> false | _ -> true

let rec reval (env : env) (e : S.t) : rv =
  match e with
  | S.Int n -> RInt n
  | S.Bool b -> RBool b
  | S.Str s -> RStr s
  | S.Sym x -> (
      match List.assoc_opt x env with
      | Some r -> !r
      | None -> raise (Ref_error ("unbound " ^ x)))
  | S.Pair (S.Sym "quote", S.Pair (d, S.Null)) -> quote d
  | S.Pair (S.Sym "if", S.Pair (c, S.Pair (t, rest))) -> (
      if truthy (reval env c) then reval env t
      else match rest with S.Pair (f, S.Null) -> reval env f | _ -> RBool false)
  | S.Pair (S.Sym "let", S.Pair (S.Sym name, S.Pair (bindings, body))) ->
      let vars, inits = List.split (List.map binding (Option.get (S.to_list bindings))) in
      let self = ref (RBool false) in
      let proc argv = reval_body (List.map2 (fun x v -> (x, ref v)) vars argv @ ((name, self) :: env)) body in
      self := RProc proc;
      proc (List.map (reval env) inits)
  | S.Pair (S.Sym "do", S.Pair (specs, S.Pair (test_res, commands))) ->
      let specs =
        List.map
          (fun s ->
            match S.to_list s with
            | Some [ S.Sym x; init ] -> (x, init, S.Sym x)
            | Some [ S.Sym x; init; step ] -> (x, init, step)
            | _ -> raise (Ref_error "bad do"))
          (Option.get (S.to_list specs))
      in
      let test, results =
        match S.to_list test_res with
        | Some (t :: r) -> (t, r)
        | _ -> raise (Ref_error "bad do test")
      in
      let rec loop vals =
        let env = List.map2 (fun (x, _, _) v -> (x, ref v)) specs vals @ env in
        if truthy (reval env test) then
          if results = [] then RBool false else reval_body env (S.list_of results)
        else begin
          List.iter (fun c -> ignore (reval env c)) (Option.get (S.to_list commands));
          loop (List.map (fun (_, _, step) -> reval env step) specs)
        end
      in
      loop (List.map (fun (_, init, _) -> reval env init) specs)
  | S.Pair (S.Sym "let", S.Pair (bindings, body)) ->
      let binds =
        List.map
          (fun b ->
            match S.to_list b with
            | Some [ S.Sym x; init ] -> (x, ref (reval env init))
            | _ -> raise (Ref_error "bad let"))
          (Option.get (S.to_list bindings))
      in
      reval_body (binds @ env) body
  | S.Pair (S.Sym "begin", body) -> reval_body env body
  | S.Pair (S.Sym "set!", S.Pair (S.Sym x, S.Pair (e, S.Null))) ->
      (match List.assoc_opt x env with
      | Some r -> r := reval env e
      | None -> raise (Ref_error "set! unbound"));
      RBool false (* void prints nowhere; callers discard *)
  | S.Pair (S.Sym "lambda", S.Pair (S.Pair (S.Sym x, S.Null), S.Pair (body, S.Null))) ->
      RClos (x, body, env)
  | S.Pair (S.Sym "and", args) ->
      let rec loop = function
        | S.Null -> RBool true
        | S.Pair (e, S.Null) -> reval env e
        | S.Pair (e, rest) -> if truthy (reval env e) then loop rest else RBool false
        | _ -> raise (Ref_error "bad and")
      in
      loop args
  | S.Pair (S.Sym "or", args) ->
      let rec loop = function
        | S.Null -> RBool false
        | S.Pair (e, S.Null) -> reval env e
        | S.Pair (e, rest) ->
            let v = reval env e in
            if truthy v then v else loop rest
        | _ -> raise (Ref_error "bad or")
      in
      loop args
  | S.Pair (f, args) ->
      let argv = List.map (reval env) (Option.get (S.to_list args)) in
      apply env f argv
  | _ -> raise (Ref_error ("cannot eval " ^ S.to_string e))

and binding b =
  match S.to_list b with Some [ S.Sym x; init ] -> (x, init) | _ -> raise (Ref_error "bad binding")

and reval_body env = function
  | S.Pair (e, S.Null) -> reval env e
  | S.Pair (e, rest) ->
      ignore (reval env e);
      reval_body env rest
  | _ -> raise (Ref_error "bad body")

and quote = function
  | S.Int n -> RInt n
  | S.Bool b -> RBool b
  | S.Str s -> RStr s
  | S.Null -> RList []
  | S.Pair (a, d) -> (
      match quote d with
      | RList l -> RList (quote a :: l)
      | _ -> raise (Ref_error "improper quote"))
  | d -> raise (Ref_error ("cannot quote " ^ S.to_string d))

and apply env f argv =
  match f with
  | S.Sym name -> (
      match (name, argv) with
      | "+", l -> RInt (List.fold_left (fun a v -> a + as_int v) 0 l)
      | "-", [ a; b ] -> RInt (as_int a - as_int b)
      | "*", [ a; b ] -> RInt (as_int a * as_int b)
      | "<", [ a; b ] -> RBool (as_int a < as_int b)
      | ">", [ a; b ] -> RBool (as_int a > as_int b)
      | "=", [ a; b ] -> RBool (as_int a = as_int b)
      | "<=", [ a; b ] -> RBool (as_int a <= as_int b)
      | "min", [ a; b ] -> RInt (min (as_int a) (as_int b))
      | "max", [ a; b ] -> RInt (max (as_int a) (as_int b))
      | "abs", [ a ] -> RInt (abs (as_int a))
      | "not", [ a ] -> RBool (not (truthy a))
      | "zero?", [ a ] -> RBool (as_int a = 0)
      | "list", l -> RList l
      | "length", [ l ] -> RInt (List.length (as_list l))
      | "reverse", [ l ] -> RList (List.rev (as_list l))
      | "append", [ a; b ] -> RList (as_list a @ as_list b)
      | "car", [ l ] -> (
          match as_list l with x :: _ -> x | [] -> raise (Ref_error "car of empty"))
      | "cdr", [ l ] -> (
          match as_list l with _ :: r -> RList r | [] -> raise (Ref_error "cdr of empty"))
      | "cons", [ a; d ] -> RList (a :: as_list d)
      | "null?", [ l ] -> RBool (as_list l = [])
      | "memv", [ x; l ] ->
          let rec loop = function
            | [] -> RBool false
            | y :: rest -> if x = y then RList (y :: rest) else loop rest
          in
          loop (as_list l)
      | "string-length", [ s ] -> RInt (String.length (as_str s))
      | "string-append", l -> RStr (String.concat "" (List.map as_str l))
      | "number->string", [ n ] -> RStr (string_of_int (as_int n))
      | "string=?", [ a; b ] -> RBool (String.equal (as_str a) (as_str b))
      | _, _ -> (
          (* not a primitive: a variable holding a closure *)
          match List.assoc_opt name env with
          | Some r -> apply_value !r argv
          | None -> raise (Ref_error ("unknown op " ^ name))))
  | _ -> apply_value (reval env f) argv

and apply_value f argv =
  match (f, argv) with
  | RClos (x, body, cenv), [ v ] -> reval ((x, ref v) :: cenv) body
  | RProc p, argv -> p argv
  | _ -> raise (Ref_error "bad application")

(* ------------------------------------------------------------------ *)
(* Type-directed program generation                                    *)

type ty = TInt | TBool | TStr | TIntList

let sym s = S.Sym s
let app f args = S.Pair (sym f, S.list_of args)

let gen_program =
  let open QCheck.Gen in
  (* Gen.t is a function from Random.State.t; [delay] postpones building a
     branch's sub-generators until the branch is actually selected —
     building them eagerly in every [frequency] list at every level would
     cost time exponential in the size budget. *)
  let delay (f : unit -> 'a QCheck.Gen.t) : 'a QCheck.Gen.t = fun st -> f () st in
  (* Int variables a set! may target: not the loop counters (iK), which
     bound the loops' trip counts. *)
  let assignable env =
    List.filter_map (fun (x, t) -> if t = TInt && x.[0] <> 'i' then Some x else None) env
  in
  (* Variables in scope, by type. *)
  let rec gen ty env n =
    if n <= 0 then base ty env
    else
      let compound =
        match ty with
        | TInt ->
            [
              (3, delay (fun () -> map2 (fun a b -> app "+" [ a; b ]) (gen TInt env ((n - 1) / 2)) (gen TInt env ((n - 1) / 2))));
              (2, delay (fun () -> map2 (fun a b -> app "-" [ a; b ]) (gen TInt env ((n - 1) / 2)) (gen TInt env ((n - 1) / 2))));
              (1, delay (fun () -> map2 (fun a b -> app "*" [ a; b ]) (gen TInt env (n - 1)) (int_range (-5) 5 >|= fun k -> S.Int k)));
              (1, delay (fun () -> gen TIntList env (n - 1) >|= fun l -> app "length" [ l ]));
              (1, delay (fun () -> gen TStr env (n - 1) >|= fun s -> app "string-length" [ s ]));
              (2, delay (fun () -> map2 (fun a b -> app "min" [ a; b ]) (gen TInt env ((n - 1) / 2)) (gen TInt env ((n - 1) / 2))));
              (1, delay (fun () -> gen TInt env (n - 1) >|= fun a -> app "abs" [ a ]));
              (1, delay (fun () -> named_let ~tail:false ty env n));
            ]
        | TBool ->
            [
              (3, delay (fun () -> map2 (fun a b -> app "<" [ a; b ]) (gen TInt env ((n - 1) / 2)) (gen TInt env ((n - 1) / 2))));
              (2, delay (fun () -> map2 (fun a b -> app "=" [ a; b ]) (gen TInt env ((n - 1) / 2)) (gen TInt env ((n - 1) / 2))));
              (1, delay (fun () -> gen TBool env (n - 1) >|= fun a -> app "not" [ a ]));
              (1, delay (fun () -> gen TIntList env (n - 1) >|= fun l -> app "null?" [ l ]));
              ( 1,
                delay (fun () ->
                    map2 (fun a b -> app "string=?" [ a; b ]) (gen TStr env ((n - 1) / 2))
                      (gen TStr env ((n - 1) / 2))) );
              ( 1,
                delay (fun () ->
                    map2
                      (fun a b -> S.Pair (sym "and", S.list_of [ a; b ]))
                      (gen TBool env ((n - 1) / 2)) (gen TBool env ((n - 1) / 2))) );
              ( 1,
                delay (fun () ->
                    map2
                      (fun a b -> S.Pair (sym "or", S.list_of [ a; b ]))
                      (gen TBool env ((n - 1) / 2)) (gen TBool env ((n - 1) / 2))) );
            ]
        | TStr ->
            [
              ( 2,
                delay (fun () ->
                    map2 (fun a b -> app "string-append" [ a; b ]) (gen TStr env ((n - 1) / 2))
                      (gen TStr env ((n - 1) / 2))) );
              (1, delay (fun () -> gen TInt env (n - 1) >|= fun a -> app "number->string" [ a ]));
            ]
        | TIntList ->
            [
              ( 3,
                delay (fun () ->
                    list_size (int_bound 4) (gen TInt env ((n - 1) / 4)) >|= fun els ->
                    app "list" els) );
              (2, delay (fun () -> map2 (fun a l -> app "cons" [ a; l ]) (gen TInt env ((n - 1) / 2)) (gen TIntList env ((n - 1) / 2))));
              (1, delay (fun () -> gen TIntList env (n - 1) >|= fun l -> app "reverse" [ l ]));
              ( 1,
                delay (fun () ->
                    map2 (fun a b -> app "append" [ a; b ]) (gen TIntList env ((n - 1) / 2))
                      (gen TIntList env ((n - 1) / 2))) );
              (1, delay (fun () -> gen TIntList env (n - 2) >|= fun l -> app "cdr" [ app "cons" [ S.Int 0; l ] ]));
              (* a let between the operands of a pending call *)
              ( 1,
                delay (fun () ->
                    let var = "v" ^ string_of_int (List.length env) in
                    map4
                      (fun a init body b ->
                        app "list"
                          [ a; S.Pair (sym "let", S.Pair (S.list_of [ S.list_of [ sym var; init ] ], S.Pair (body, S.Null))); b ])
                      (gen TInt env ((n - 1) / 4)) (gen TInt env ((n - 1) / 4))
                      (gen TInt ((var, TInt) :: env) ((n - 1) / 4))
                      (gen TInt env ((n - 1) / 4))) );
            ]
      in
      let generic =
        [
          (* (if bool t f) *)
          ( 2,
            delay (fun () ->
                map3
                  (fun c t f -> app "if" [ c; t; f ])
                  (gen TBool env ((n - 1) / 3)) (gen ty env ((n - 1) / 3)) (gen ty env ((n - 1) / 3))) );
          (* (let ([x int]) body) *)
          ( 2,
            delay (fun () ->
                let var = "v" ^ string_of_int (List.length env) in
                map2
                  (fun init body ->
                    S.Pair
                      (sym "let", S.Pair (S.list_of [ S.list_of [ sym var; init ] ], S.Pair (body, S.Null))))
                  (gen TInt env ((n - 1) / 2))
                  (gen ty ((var, TInt) :: env) ((n - 1) / 2))) );
          (* (begin (set! x int) body) with x an int var in scope *)
          ( (if assignable env <> [] then 2 else 0),
            delay (fun () ->
                assignable env |> oneofl >>= fun x ->
                map2
                  (fun v body -> app "begin" [ app "set!" [ sym x; v ]; body ])
                  (gen TInt env ((n - 1) / 2))
                  (gen ty env ((n - 1) / 2))) );
          (2, delay (fun () -> named_let ~tail:true ty env n));
          (* (do ([iK count (- iK 1)] [aK init step]) ((<= iK 0) aK) cmd) *)
          ( 1,
            delay (fun () ->
                let k = string_of_int (List.length env) in
                let i = "i" ^ k and a = "a" ^ k in
                let inner = (i, TInt) :: (a, ty) :: env in
                let command =
                  if assignable env = [] then return []
                  else
                    assignable env |> oneofl >>= fun x ->
                    gen TInt inner ((n - 1) / 4) >|= fun v -> [ app "set!" [ sym x; v ] ]
                in
                map4
                  (fun count init step cmd ->
                    S.Pair
                      ( sym "do",
                        S.Pair
                          ( S.list_of
                              [
                                S.list_of [ sym i; S.Int count; app "-" [ sym i; S.Int 1 ] ];
                                S.list_of [ sym a; init; step ];
                              ],
                            S.Pair (S.list_of [ app "<=" [ sym i; S.Int 0 ]; sym a ], S.list_of cmd) ) ))
                  (int_range 0 4) (gen ty env ((n - 1) / 4)) (gen ty inner ((n - 1) / 4)) command) );
          (* ((lambda (x) body) int) *)
          ( 1,
            delay (fun () ->
                let var = "f" ^ string_of_int (List.length env) in
                map2
                  (fun arg body ->
                    S.Pair
                      ( S.Pair
                          (sym "lambda", S.Pair (S.list_of [ sym var ], S.Pair (body, S.Null))),
                        S.list_of [ arg ] ))
                  (gen TInt env ((n - 1) / 2))
                  (gen ty ((var, TInt) :: env) ((n - 1) / 2))) );
        ]
      in
      frequency (List.filter (fun (w, _) -> w > 0) (compound @ generic))
  (* (let lpK ([iK count] [aK init]) (if (<= iK 0) aK (lpK (- iK 1) step))),
     or, not [tail], with [(+ 1 (lpK ...))] for the self-call (TInt only) *)
  and named_let ~tail ty env n =
    let k = string_of_int (List.length env) in
    let i = "i" ^ k and a = "a" ^ k and lp = "lp" ^ k in
    let inner = (i, TInt) :: (a, ty) :: env in
    map3
      (fun count init step ->
        let again = app lp [ app "-" [ sym i; S.Int 1 ]; step ] in
        S.Pair
          ( sym "let",
            S.Pair
              ( sym lp,
                S.Pair
                  ( S.list_of [ S.list_of [ sym i; S.Int count ]; S.list_of [ sym a; init ] ],
                    S.Pair
                      ( app "if"
                          [ app "<=" [ sym i; S.Int 0 ]; sym a; (if tail then again else app "+" [ S.Int 1; again ]) ],
                        S.Null ) ) ) ))
      (int_range 0 4) (gen ty env ((n - 1) / 3)) (gen ty inner ((n - 1) / 3))
  and base ty env =
    let vars = List.filter (fun (_, t) -> t = ty) env in
    let var_gens = List.map (fun (x, _) -> (2, return (sym x))) vars in
    let lit =
      match ty with
      | TInt -> [ (2, map (fun n -> S.Int n) (int_range (-100) 100)) ]
      | TBool -> [ (2, map (fun b -> S.Bool b) bool) ]
      | TStr ->
          [
            ( 2,
              map (fun n -> S.Str (String.init (n mod 5) (fun i -> Char.chr (97 + ((n + i) mod 26)))))
                (int_bound 30) );
          ]
      | TIntList ->
          [
            ( 2,
              map
                (fun els -> S.Pair (sym "quote", S.Pair (S.list_of (List.map (fun n -> S.Int n) els), S.Null)))
                (list_size (int_bound 3) (int_range (-9) 9)) );
          ]
    in
    frequency (var_gens @ lit)
  in
  let open QCheck.Gen in
  oneofl [ TInt; TBool; TStr; TIntList ] >>= fun ty ->
  sized_size (int_range 1 40) (fun n -> gen ty [] n)

(* ------------------------------------------------------------------ *)

let machine = lazy (Scheme.create ())

let prop_vm_matches_reference =
  QCheck.Test.make ~name:"VM agrees with the reference interpreter" ~count:500
    (QCheck.make ~print:S.to_string gen_program)
    (fun prog ->
      let reference =
        match reval [] prog with
        | v -> rv_print v
        | exception Ref_error msg -> "reference-error: " ^ msg
      in
      let m = Lazy.force machine in
      let vm =
        match Machine.eval_datum m prog with
        | w -> Gbc_scheme.Printer.to_string (Machine.heap m) w
        | exception Machine.Error msg -> "vm-error: " ^ msg
      in
      if String.length reference >= 15 && String.sub reference 0 15 = "reference-error" then
        QCheck.assume_fail () (* generator should not produce errors; skip *)
      else if String.equal reference vm then true
      else
        QCheck.Test.fail_reportf "program: %s@.reference: %s@.vm: %s" (S.to_string prog)
          reference vm)

(* The same differential check under constant collection pressure.  The
   program's codes then go through an image: restored, each one passes
   the code check and re-encodes to the same bytes. *)
let prop_vm_matches_reference_with_gc =
  QCheck.Test.make ~name:"VM agrees under collection pressure" ~count:200
    (QCheck.make ~print:S.to_string gen_program)
    (fun prog ->
      let reference =
        match reval [] prog with
        | v -> rv_print v
        | exception Ref_error _ -> ""
      in
      QCheck.assume (reference <> "");
      let config = Gbc_runtime.Config.v ~gen0_trigger_words:256 () in
      let m = Gbc_scheme.Scheme.create ~config () in
      let vm =
        match Machine.eval_datum m prog with
        | w -> Gbc_scheme.Printer.to_string (Machine.heap m) w
        | exception Machine.Error msg -> "vm-error: " ^ msg
      in
      let module I = Gbc_scheme.Scheme_image in
      let r = I.load_string ~install:Gbc_scheme.Primitives.install (I.save_string m) in
      let codes m = I.encode_codes (Machine.image_codes m) in
      let same_codes = String.equal (codes m) (codes r) in
      Machine.dispose r;
      Machine.dispose m;
      String.equal reference vm && same_codes)

let () =
  Alcotest.run "compiler_diff"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_vm_matches_reference; prop_vm_matches_reference_with_gc ] );
    ]
