(** The compiler: source data to bytecode.

    Pipeline: parse (expanding derived forms to a small core), analyse
    (free and assigned variables, flat closures with boxed assigned
    variables), emit ({!Instr}).  The [linker] callbacks are provided by
    {!Machine}: interning global cells, materializing constants and
    registering code blocks. *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type linker = {
  global_cell : string -> int;  (** global variable -> root cell id *)
  add_const : Sexpr.t -> int;  (** materialize a constant -> index *)
  add_code : Instr.code -> int;  (** register a code block -> id *)
}

module SSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Core AST                                                            *)

type expr =
  | Quote of Sexpr.t
  | Var of string
  | Set of string * expr
  | If of expr * expr * expr
  | Lambda of lam
  | Begin of expr list
  | App of expr * expr list

and clause_ast = { params : string list; rest : string option; body : expr }
and lam = { lam_name : string; clauses : clause_ast list }

(* ------------------------------------------------------------------ *)
(* Parsing / expansion                                                 *)

let gensym_counter = ref 0

let gensym prefix =
  incr gensym_counter;
  Printf.sprintf "%%%s.%d" prefix !gensym_counter

let as_list d =
  match Sexpr.to_list d with
  | Some l -> l
  | None -> error "expected proper list: %s" (Sexpr.to_string d)

let sym_name = function Sexpr.Sym s -> s | d -> error "expected symbol: %s" (Sexpr.to_string d)

(* Formals: (a b c), (a b . r), r *)
let parse_formals d =
  let rec loop = function
    | Sexpr.Null -> ([], None)
    | Sexpr.Sym r -> ([], Some r)
    | Sexpr.Pair (Sexpr.Sym a, rest) ->
        let ps, r = loop rest in
        (a :: ps, r)
    | d -> error "bad parameter list: %s" (Sexpr.to_string d)
  in
  loop d

let rec parse (d : Sexpr.t) : expr =
  match d with
  | Sexpr.Sym s -> Var s
  | Sexpr.Null -> error "empty application ()"
  | Sexpr.Bool _ | Sexpr.Int _ | Sexpr.Float _ | Sexpr.Char _ | Sexpr.Str _
  | Sexpr.Vector _ ->
      Quote d
  | Sexpr.Pair (Sexpr.Sym keyword, rest) -> parse_form keyword rest d
  | Sexpr.Pair (op, args) -> App (parse op, List.map parse (as_list args))

and parse_form keyword rest whole =
  match (keyword, as_list rest) with
  | "quote", [ d ] -> Quote d
  | "quote", _ -> error "bad quote"
  | "if", [ c; t ] -> If (parse c, parse t, Quote (Sexpr.Bool false))
  | "if", [ c; t; e ] -> If (parse c, parse t, parse e)
  | "if", _ -> error "bad if: %s" (Sexpr.to_string whole)
  | "set!", [ Sexpr.Sym name; e ] -> Set (name, parse e)
  | "set!", _ -> error "bad set!: %s" (Sexpr.to_string whole)
  | "begin", [] -> Quote (Sexpr.Bool false)
  | "begin", forms -> Begin (List.map parse forms)
  | "lambda", formals :: body when body <> [] ->
      let params, rst = parse_formals formals in
      Lambda { lam_name = "lambda"; clauses = [ make_clause params rst body ] }
  | "lambda", _ -> error "bad lambda: %s" (Sexpr.to_string whole)
  | "case-lambda", clauses ->
      let parse_clause c =
        match as_list c with
        | formals :: body when body <> [] ->
            let params, rst = parse_formals formals in
            make_clause params rst body
        | _ -> error "bad case-lambda clause: %s" (Sexpr.to_string c)
      in
      Lambda { lam_name = "case-lambda"; clauses = List.map parse_clause clauses }
  | "let", (Sexpr.Sym name :: bindings :: body) when body <> [] ->
      (* Named let: (letrec ([name (lambda (vars) body)]) (name inits)) *)
      let vars, inits = parse_bindings bindings in
      let loop_lambda =
        Lambda { lam_name = name; clauses = [ make_clause vars None body ] }
      in
      parse_letrec [ (name, `Parsed loop_lambda) ]
        [ `Parsed (App (Var name, List.map parse inits)) ]
  | "let", bindings :: body when body <> [] ->
      let vars, inits = parse_bindings bindings in
      App
        ( Lambda { lam_name = "let"; clauses = [ make_clause vars None body ] },
          List.map parse inits )
  | "let", _ -> error "bad let: %s" (Sexpr.to_string whole)
  | "let*", bindings :: body when body <> [] -> (
      match as_list bindings with
      | [] -> parse_body body
      | [ _ ] -> parse_form "let" rest whole
      | b :: more ->
          parse_form "let"
            (Sexpr.list_of
               [ Sexpr.list_of [ b ];
                 Sexpr.Pair (Sexpr.Sym "let*", Sexpr.Pair (Sexpr.list_of more, Sexpr.list_of body));
               ])
            whole)
  | "let*", _ -> error "bad let*: %s" (Sexpr.to_string whole)
  | ("letrec" | "letrec*"), bindings :: body when body <> [] ->
      let vars, inits = parse_bindings bindings in
      parse_letrec
        (List.map2 (fun v i -> (v, `Datum i)) vars inits)
        (List.map (fun b -> `Datum b) body)
  | ("letrec" | "letrec*"), _ -> error "bad letrec: %s" (Sexpr.to_string whole)
  | "cond", clauses -> parse_cond clauses
  | "case", key :: clauses -> parse_case key clauses
  | "and", [] -> Quote (Sexpr.Bool true)
  | "and", [ e ] -> parse e
  | "and", e :: more ->
      If (parse e, parse_form "and" (Sexpr.list_of more) whole, Quote (Sexpr.Bool false))
  | "or", [] -> Quote (Sexpr.Bool false)
  | "or", [ e ] -> parse e
  | "or", e :: more ->
      let t = gensym "or" in
      App
        ( Lambda
            {
              lam_name = "or";
              clauses =
                [
                  {
                    params = [ t ];
                    rest = None;
                    body =
                      If (Var t, Var t, parse_form "or" (Sexpr.list_of more) whole);
                  };
                ];
            },
          [ parse e ] )
  | "when", c :: body when body <> [] ->
      If (parse c, parse_body body, Quote (Sexpr.Bool false))
  | "unless", c :: body when body <> [] ->
      If (parse c, Quote (Sexpr.Bool false), parse_body body)
  | "do", spec :: (test_result :: commands) -> parse_do spec test_result commands
  | "define", _ -> error "define is only allowed at top level or body head"
  | "quasiquote", [ template ] -> parse_quasiquote template 1
  | "quasiquote", _ -> error "bad quasiquote"
  | ("unquote" | "unquote-splicing"), _ -> error "unquote outside quasiquote"
  | _, args -> App (parse (Sexpr.Sym keyword), List.map parse args)

(* Standard depth-aware quasiquote expansion into cons/append/list->vector
   applications. *)
and parse_quasiquote template depth =
  let quote d = Quote d in
  match template with
  | Sexpr.Pair (Sexpr.Sym "unquote", Sexpr.Pair (e, Sexpr.Null)) ->
      if depth = 1 then parse e
      else
        App
          ( Var "list",
            [ quote (Sexpr.Sym "unquote"); parse_quasiquote e (depth - 1) ] )
  | Sexpr.Pair (Sexpr.Sym "quasiquote", Sexpr.Pair (e, Sexpr.Null)) ->
      App
        ( Var "list",
          [ quote (Sexpr.Sym "quasiquote"); parse_quasiquote e (depth + 1) ] )
  | Sexpr.Pair
      ((Sexpr.Pair (Sexpr.Sym "unquote-splicing", Sexpr.Pair (e, Sexpr.Null)) as head), tail)
    ->
      if depth = 1 then App (Var "append", [ parse e; parse_quasiquote tail depth ])
      else
        App
          ( Var "cons",
            [
              App
                ( Var "list",
                  [ quote (Sexpr.Sym "unquote-splicing"); parse_quasiquote (List.nth (Option.get (Sexpr.to_list head)) 1) (depth - 1) ] );
              parse_quasiquote tail depth;
            ] )
  | Sexpr.Pair (a, d) ->
      App (Var "cons", [ parse_quasiquote a depth; parse_quasiquote d depth ])
  | Sexpr.Vector els ->
      App
        ( Var "list->vector",
          [ parse_quasiquote (Sexpr.list_of (Array.to_list els)) depth ] )
  | atom -> quote atom

and parse_bindings bindings =
  let parse_one b =
    match as_list b with
    | [ Sexpr.Sym v; init ] -> (v, init)
    | _ -> error "bad binding: %s" (Sexpr.to_string b)
  in
  let pairs = List.map parse_one (as_list bindings) in
  (List.map fst pairs, List.map snd pairs)

(* (letrec ([v e]...) body...) == (let ([v #f]...) (set! v e) ... body...);
   inits and body may already be parsed (for named let). *)
and parse_letrec vars_inits body =
  let vars = List.map fst vars_inits in
  let force = function `Parsed e -> e | `Datum d -> parse d in
  let sets = List.map (fun (v, i) -> Set (v, force i)) vars_inits in
  let body_exprs = List.map force body in
  App
    ( Lambda
        {
          lam_name = "letrec";
          clauses =
            [ { params = vars; rest = None; body = Begin (sets @ body_exprs) } ];
        },
      List.map (fun _ -> Quote (Sexpr.Bool false)) vars )

and parse_cond clauses =
  match clauses with
  | [] -> Quote (Sexpr.Bool false)
  | clause :: more -> (
      match as_list clause with
      | [ Sexpr.Sym "else" ] -> error "bad else clause"
      | Sexpr.Sym "else" :: body -> parse_body body
      | [ test ] ->
          let t = gensym "cond" in
          App
            ( Lambda
                {
                  lam_name = "cond";
                  clauses =
                    [
                      {
                        params = [ t ];
                        rest = None;
                        body = If (Var t, Var t, parse_cond more);
                      };
                    ];
                },
              [ parse test ] )
      | test :: body -> If (parse test, parse_body body, parse_cond more)
      | [] -> error "empty cond clause")

and parse_case key clauses =
  let t = gensym "case" in
  let rec build = function
    | [] -> Quote (Sexpr.Bool false)
    | clause :: more -> (
        match as_list clause with
        | Sexpr.Sym "else" :: body -> parse_body body
        | data :: body ->
            If
              ( App (Var "memv", [ Var t; Quote data ]),
                parse_body body,
                build more )
        | [] -> error "empty case clause")
  in
  App
    ( Lambda
        { lam_name = "case"; clauses = [ { params = [ t ]; rest = None; body = build clauses } ] },
      [ parse key ] )

(* (do ([v init step]...) (test res...) cmd...) *)
and parse_do spec test_result commands =
  let specs =
    List.map
      (fun s ->
        match as_list s with
        | [ Sexpr.Sym v; init ] -> (v, init, Sexpr.Sym v)
        | [ Sexpr.Sym v; init; step ] -> (v, init, step)
        | _ -> error "bad do binding: %s" (Sexpr.to_string s))
      (as_list spec)
  in
  let test, results =
    match as_list test_result with
    | test :: results -> (test, results)
    | [] -> error "bad do test"
  in
  let loop = gensym "do" in
  let vars = List.map (fun (v, _, _) -> v) specs in
  let steps = List.map (fun (_, _, s) -> parse s) specs in
  let body =
    If
      ( parse test,
        (if results = [] then Quote (Sexpr.Bool false) else parse_body results),
        Begin (List.map parse commands @ [ App (Var loop, steps) ]) )
  in
  parse_letrec
    [ (loop, `Parsed (Lambda { lam_name = loop; clauses = [ { params = vars; rest = None; body } ] })) ]
    [ `Parsed (App (Var loop, List.map (fun (_, i, _) -> parse i) specs)) ]

(* A lambda/let body: leading internal defines become letrec*. *)
and make_clause params rest body = { params; rest; body = parse_body body }

and parse_body body =
  let is_define = function
    | Sexpr.Pair (Sexpr.Sym "define", _) -> true
    | _ -> false
  in
  let defines, forms =
    let rec split acc = function
      | d :: rest when is_define d -> split (d :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    split [] body
  in
  if forms = [] then error "body has no expressions";
  let rest_exprs = List.map parse forms in
  if defines = [] then
    match rest_exprs with [ e ] -> e | es -> Begin es
  else begin
    let bindings =
      List.map
        (fun d ->
          match d with
          | Sexpr.Pair (_, Sexpr.Pair (Sexpr.Sym name, Sexpr.Pair (e, Sexpr.Null))) ->
              (name, `Datum e)
          | Sexpr.Pair (_, Sexpr.Pair (Sexpr.Pair (Sexpr.Sym name, formals), body)) ->
              let params, rst = parse_formals formals in
              ( name,
                `Parsed
                  (Lambda { lam_name = name; clauses = [ make_clause params rst (as_list body) ] })
              )
          | _ -> error "bad internal define: %s" (Sexpr.to_string d))
        defines
    in
    parse_letrec bindings (List.map (fun e -> `Parsed e) rest_exprs)
  end

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

let clause_bound c = SSet.of_list (c.params @ Option.to_list c.rest)

(* Variables of [expr] free with respect to [bound]. *)
let rec free_vars bound expr acc =
  match expr with
  | Quote _ -> acc
  | Var s -> if SSet.mem s bound then acc else SSet.add s acc
  | Set (s, e) ->
      let acc = if SSet.mem s bound then acc else SSet.add s acc in
      free_vars bound e acc
  | If (a, b, c) -> free_vars bound a (free_vars bound b (free_vars bound c acc))
  | Begin es -> List.fold_left (fun acc e -> free_vars bound e acc) acc es
  | App (f, args) ->
      List.fold_left (fun acc e -> free_vars bound e acc) (free_vars bound f acc) args
  | Lambda { clauses; _ } ->
      List.fold_left
        (fun acc c -> free_vars (SSet.union bound (clause_bound c)) c.body acc)
        acc clauses

(* All set! target names anywhere in [expr] (conservative: shadowing
   ignored; over-boxing is harmless). *)
let rec assigned_vars expr acc =
  match expr with
  | Quote _ | Var _ -> acc
  | Set (s, e) -> assigned_vars e (SSet.add s acc)
  | If (a, b, c) -> assigned_vars a (assigned_vars b (assigned_vars c acc))
  | Begin es -> List.fold_left (fun acc e -> assigned_vars e acc) acc es
  | App (f, args) -> List.fold_left (fun acc e -> assigned_vars e acc) (assigned_vars f acc) args
  | Lambda { clauses; _ } ->
      List.fold_left (fun acc c -> assigned_vars c.body acc) acc clauses

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)

(* A small, safe AST optimizer run before emission:

   - constant folding of fixnum arithmetic and comparisons on literals
     (careful to preserve error behaviour: division and overflow are left
     alone);
   - [if] on a literal condition selects its arm (any datum other than #f
     is true);
   - [begin] flattening and removal of effect-free non-tail subforms.

   Only applied when the operator is one of the known primitive names;
   since globals can be redefined at runtime, folding is restricted to the
   operators the prelude never shadows. *)

let literal_int = function Quote (Sexpr.Int n) -> Some n | _ -> None

let effect_free = function
  | Quote _ | Var _ | Lambda _ -> true
  | _ -> false

let rec simplify_in bound expr =
  match expr with
  | Quote _ | Var _ -> expr
  | Set (x, e) -> Set (x, simplify_in bound e)
  | If (c, t, f) -> (
      let c = simplify_in bound c
      and t = simplify_in bound t
      and f = simplify_in bound f in
      match c with
      | Quote d -> if d = Sexpr.Bool false then f else t
      | _ -> If (c, t, f))
  | Begin es -> (
      let es = List.concat_map flatten_begin (List.map (simplify_in bound) es) in
      match drop_effect_free es with
      | [] -> Quote (Sexpr.Bool false)
      | [ e ] -> e
      | es -> Begin es)
  | Lambda l ->
      Lambda
        {
          l with
          clauses =
            List.map
              (fun c ->
                { c with body = simplify_in (SSet.union bound (clause_bound c)) c.body })
              l.clauses;
        }
  | App (f, args) -> (
      let f = simplify_in bound f and args = List.map (simplify_in bound) args in
      match f with
      | Var op when not (SSet.mem op bound) -> (
          (* Folding assumes the standard meaning of the operator; it is
             disabled whenever the name is lexically rebound. *)
          match fold_primitive op args with Some e -> e | None -> App (f, args))
      | _ -> App (f, args))

and flatten_begin = function Begin es -> es | e -> [ e ]

(* Keep the last form; drop effect-free forms evaluated only for effect. *)
and drop_effect_free = function
  | [] -> []
  | [ last ] -> [ last ]
  | e :: rest -> if effect_free e then drop_effect_free rest else e :: drop_effect_free rest

and fold_primitive op args =
  let ints = List.map literal_int args in
  let all_ints = List.for_all Option.is_some ints in
  if not all_ints then None
  else
    let ns = List.map Option.get ints in
    let fits n = n >= Gbc_runtime.Word.fixnum_min && n <= Gbc_runtime.Word.fixnum_max in
    let int n = if fits n then Some (Quote (Sexpr.Int n)) else None in
    (* Arithmetic folds step by step and gives up as soon as a partial
       result leaves the fixnum range, where the VM raises an overflow
       error. *)
    let rec arith f acc = function
      | [] -> int acc
      | n :: rest ->
          let r = f acc n in
          if fits r then arith f r rest else None
    in
    match (op, ns) with
    | "+", ns -> arith ( + ) 0 ns
    | "*", ns -> arith Gbc_runtime.Word.mul_exact 1 ns
    | "-", [ n ] -> int (-n)
    | "-", n :: rest when rest <> [] && fits n -> arith ( - ) n rest
    | "min", [ a; b ] -> int (min a b)
    | "max", [ a; b ] -> int (max a b)
    | "abs", [ a ] -> int (abs a)
    | ("<" | ">" | "<=" | ">=" | "="), (_ :: _ :: _ as ns) ->
        let cmp =
          match op with
          | "<" -> ( < )
          | ">" -> ( > )
          | "<=" -> ( <= )
          | ">=" -> ( >= )
          | _ -> ( = )
        in
        let rec chain = function
          | a :: (b :: _ as rest) -> cmp a b && chain rest
          | _ -> true
        in
        Some (Quote (Sexpr.Bool (chain ns)))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Let forms and loops                                                 *)

(* A direct application of a one-clause, fixed-arity lambda to as many
   operands: what let, letrec, or, cond, case and internal defines expand
   to.  It compiles to frame slots of the enclosing clause, with no
   closure and no call. *)
let let_form = function
  | App (Lambda { clauses = [ { params; rest = None; body } ]; _ }, args)
    when List.length params = List.length args ->
      Some (params, args, body)
  | _ -> None

let mentions name e = SSet.mem name (free_vars SSet.empty e SSet.empty)

(* Every occurrence of [name] in [expr] applies it to [arity] operands in
   tail position, where let forms' bodies inherit their position: the
   loop is never captured, passed or assigned. *)
let rec only_tail_calls name arity ~tail expr =
  let non_tail = only_tail_calls name arity ~tail:false in
  match expr with
  | Quote _ -> true
  | Var s -> s <> name
  | Set (s, e) -> s <> name && non_tail e
  | If (c, t, f) ->
      non_tail c && only_tail_calls name arity ~tail t && only_tail_calls name arity ~tail f
  | Begin es -> (
      match List.rev es with
      | [] -> true
      | last :: init -> List.for_all non_tail init && only_tail_calls name arity ~tail last)
  | App (Var s, args) when s = name -> tail && List.length args = arity && List.for_all non_tail args
  | App (f, args) -> (
      List.for_all non_tail args
      &&
      match let_form expr with
      | Some (params, _, body) -> List.mem name params || only_tail_calls name arity ~tail body
      | None -> non_tail f)
  | Lambda _ -> not (mentions name expr)

(* The shape parse_letrec gives a named let and a do loop,
   [((lambda (name) (set! name (lambda vars body)) (name inits...)) 'c)],
   when [name] is only ever applied in tail position of [body] with the
   loop's arity: it compiles to a loop head and backward jumps. *)
let loop_form expr =
  match let_form expr with
  | Some
      ( [ name ],
        [ Quote _ ],
        Begin
          [
            Set (n1, Lambda { clauses = [ { params = vars; rest = None; body } ]; _ });
            App (Var n2, inits);
          ] )
    when n1 = name && n2 = name
         && List.length inits = List.length vars
         && (not (List.exists (mentions name) inits))
         && (List.mem name vars || only_tail_calls name (List.length vars) ~tail:true body) ->
      Some (name, vars, body, inits)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

type binding = {
  bname : string;
  boxed : bool;
  slot : int;
      (** a local's frame slot, a free variable's index; for a loop, its
          first variable's slot *)
  head : int;  (** a jump-compiled loop's head, or -1 for a variable *)
}

type cenv = { locals : binding list; free : binding list }

(* One clause's emission state: its instructions (newest first), the
   branches to patch with their final targets, the variables assigned
   anywhere in it (boxed where bound) and the high-water mark of its frame
   slots. *)
type clause_state = {
  mutable instrs : Instr.instr list;
  mutable len : int;
  mutable patches : (int * (unit -> Instr.instr)) list;
  assigned : SSet.t;
  mutable hw : int;
}

type ctx = {
  linker : linker;
  st : clause_state;
  env : cenv;
  next : int;  (** the first frame slot free for a let in scope *)
}

let clause_state ~assigned ~params =
  { instrs = []; len = 0; patches = []; assigned; hw = params }

let emit ctx i =
  let st = ctx.st in
  st.instrs <- i :: st.instrs;
  st.len <- st.len + 1

let finish st =
  let arr = Array.of_list (List.rev st.instrs) in
  List.iter (fun (at, make) -> arr.(at) <- make ()) st.patches;
  arr

let lookup name bindings = List.find_opt (fun b -> b.bname = name) bindings

(* Bind [names] to the slots from [first], boxing the assigned ones. *)
let bind_slots ctx names first =
  let bs =
    List.mapi
      (fun i p -> { bname = p; boxed = SSet.mem p ctx.st.assigned; slot = first + i; head = -1 })
      names
  in
  List.iter (fun b -> if b.boxed then emit ctx (Instr.Box_local b.slot)) bs;
  bs

let rec compile_expr ctx ~tail expr =
  match expr with
  | Quote d -> compile_quote ctx d
  | Var name -> compile_var ctx name
  | Set (name, e) ->
      compile_expr ctx ~tail:false e;
      compile_set ctx name
  | If (c, t, f) ->
      compile_expr ctx ~tail:false c;
      let st = ctx.st in
      let else_pos = ref (-1) and end_pos = ref (-1) in
      let at_brf = st.len in
      emit ctx (Instr.Jump (-1));
      st.patches <- (at_brf, fun () -> Instr.Branch_false !else_pos) :: st.patches;
      compile_expr ctx ~tail t;
      if tail then begin
        (* No join: the then-arm returns explicitly (dead code when it ended
           in a tail call), the else-arm flows to the clause's Return. *)
        emit ctx Instr.Return;
        else_pos := st.len;
        compile_expr ctx ~tail f
      end
      else begin
        let at_jmp = st.len in
        emit ctx (Instr.Jump (-1));
        st.patches <- (at_jmp, fun () -> Instr.Jump !end_pos) :: st.patches;
        else_pos := st.len;
        compile_expr ctx ~tail f;
        end_pos := st.len
      end
  | Begin [] -> emit ctx (Instr.Imm Gbc_runtime.Word.void)
  | Begin es ->
      let rec loop = function
        | [] -> ()
        | [ last ] -> compile_expr ctx ~tail last
        | e :: rest ->
            compile_expr ctx ~tail:false e;
            loop rest
      in
      loop es
  | Lambda lam -> compile_lambda ctx lam
  | App (f, args) -> (
      match (loop_binding ctx f, loop_form expr, let_form expr) with
      | Some loop, _, _ -> compile_jump ctx loop args
      | None, Some (name, vars, body, inits), _ -> compile_loop ctx ~tail name vars body inits
      | None, None, Some (params, inits, body) -> compile_let ctx ~tail params inits body
      | None, None, None -> compile_app ctx ~tail f args)

and compile_app ctx ~tail f args =
  match open_op ctx f args with
  | Some op ->
      (* The last operand stays in acc; the cell is linked after the
         operands, where the generic path would read the operator. *)
      List.iteri
        (fun i a ->
          compile_expr ctx ~tail:false a;
          if i < op.Instr.arity - 1 then emit ctx Instr.Push)
        args;
      emit ctx (Instr.Op { op; cell = ctx.linker.global_cell op.Instr.name; tail })
  | None ->
      List.iter
        (fun a ->
          compile_expr ctx ~tail:false a;
          emit ctx Instr.Push)
        args;
      compile_expr ctx ~tail:false f;
      emit ctx (if tail then Instr.Tail_call (List.length args) else Instr.Call (List.length args))

(* Evaluate [inits] into the slots from [first], each written as soon as
   it is computed: the inits do not see the slots, and lets inside them
   use slots past the new ones. *)
and compile_inits ctx inits first =
  let inner = { ctx with next = first + List.length inits } in
  List.iteri
    (fun i a ->
      compile_expr inner ~tail:false a;
      emit ctx (Instr.Local_set (first + i)))
    inits

(* Compile [body] with [locals] in scope and slots [first, next) bound.
   A non-tail scope clears every slot it used on exit, so a finished
   let's values are garbage as soon as the let is. *)
and compile_scope ctx ~tail ~first ~next locals body =
  let st = ctx.st in
  let outer = st.hw in
  st.hw <- next;
  compile_expr { ctx with env = { ctx.env with locals }; next } ~tail body;
  let used = st.hw in
  st.hw <- max outer used;
  if (not tail) && used > first then
    emit ctx (Instr.Local_clear { slot = first; count = used - first })

and compile_let ctx ~tail params inits body =
  let first = ctx.next and n = List.length params in
  compile_inits ctx inits first;
  let bs = bind_slots ctx params first in
  compile_scope ctx ~tail ~first ~next:(first + n) (bs @ ctx.env.locals) body

(* The loop head sits above the boxing of assigned loop variables, so
   each iteration binds fresh boxes. *)
and compile_loop ctx ~tail name vars body inits =
  let first = ctx.next and n = List.length vars in
  compile_inits ctx inits first;
  let head = ctx.st.len in
  let bs = bind_slots ctx vars first in
  let loop = { bname = name; boxed = false; slot = first; head } in
  compile_scope ctx ~tail ~first ~next:(first + n) (bs @ (loop :: ctx.env.locals)) body

(* A loop's tail self-application: every new value is computed before
   any loop variable is written, then a backward jump. *)
and compile_jump ctx loop args =
  (match args with
  | [ a ] ->
      compile_expr ctx ~tail:false a;
      emit ctx (Instr.Local_set loop.slot)
  | [] -> ()
  | _ ->
      List.iter
        (fun a ->
          compile_expr ctx ~tail:false a;
          emit ctx Instr.Push)
        args;
      emit ctx (Instr.Local_pop { slot = loop.slot; count = List.length args }));
  emit ctx (Instr.Loop loop.head)

and loop_binding ctx f =
  match f with
  | Var name -> (
      match lookup name ctx.env.locals with Some b when b.head >= 0 -> Some b | _ -> None)
  | _ -> None

(* The op an application compiles to: a global (not lexically bound) in
   the open-coded table, applied to exactly the op's arity. *)
and open_op ctx f args =
  match f with
  | Var name -> (
      match Instr.find_op name with
      | Some op
        when op.Instr.arity = List.length args
             && lookup name ctx.env.locals = None
             && lookup name ctx.env.free = None ->
          Some op
      | _ -> None)
  | _ -> None

and compile_quote ctx d =
  let open Gbc_runtime in
  match d with
  | Sexpr.Int n -> emit ctx (Instr.Imm (Word.of_fixnum n))
  | Sexpr.Bool b -> emit ctx (Instr.Imm (Word.of_bool b))
  | Sexpr.Char c -> emit ctx (Instr.Imm (Word.of_char c))
  | Sexpr.Null -> emit ctx (Instr.Imm Word.nil)
  | _ -> emit ctx (Instr.Const (ctx.linker.add_const d))

and compile_var ctx name =
  match lookup name ctx.env.locals with
  | Some b ->
      assert (b.head < 0);
      emit ctx (Instr.Local_ref b.slot);
      if b.boxed then emit ctx Instr.Unbox
  | None -> (
      match lookup name ctx.env.free with
      | Some b ->
          emit ctx (Instr.Free_ref b.slot);
          if b.boxed then emit ctx Instr.Unbox
      | None -> emit ctx (Instr.Global_ref (ctx.linker.global_cell name)))

and compile_set ctx name =
  match lookup name ctx.env.locals with
  | Some b ->
      assert b.boxed;
      emit ctx (Instr.Local_set_box b.slot)
  | None -> (
      match lookup name ctx.env.free with
      | Some b ->
          assert b.boxed;
          emit ctx (Instr.Free_set_box b.slot)
      | None -> emit ctx (Instr.Global_set (ctx.linker.global_cell name)))

and compile_lambda ctx { lam_name; clauses } =
  (* Free variables: those used by any clause and bound in the enclosing
     environment (anything else is a global reference).  Their boxedness
     comes from the enclosing binding. *)
  let enclosing name =
    match lookup name ctx.env.locals with
    | Some b -> Some (b, Instr.Local_ref b.slot)
    | None -> Option.map (fun b -> (b, Instr.Free_ref b.slot)) (lookup name ctx.env.free)
  in
  let free_set =
    List.fold_left (fun acc c -> free_vars (clause_bound c) c.body acc) SSet.empty clauses
  in
  let captured = List.filter_map enclosing (SSet.elements free_set) in
  let free_bindings =
    List.mapi (fun i (b, _) -> { bname = b.bname; boxed = b.boxed; slot = i; head = -1 }) captured
  in
  let compiled_clauses = List.map (compile_clause ctx.linker ~free_bindings) clauses in
  let code_id = ctx.linker.add_code { Instr.name = lam_name; clauses = compiled_clauses } in
  (* Capture: push the raw slot (value, or box for assigned variables). *)
  List.iter
    (fun (_, load) ->
      emit ctx load;
      emit ctx Instr.Push)
    captured;
  emit ctx (Instr.Make_closure { code_id; nfree = List.length captured })

and compile_clause linker ~free_bindings c =
  let c = { c with body = simplify_in (clause_bound c) c.body } in
  let params = c.params @ Option.to_list c.rest in
  let st = clause_state ~assigned:(assigned_vars c.body SSet.empty) ~params:(List.length params) in
  let ctx = { linker; st; env = { locals = []; free = free_bindings }; next = List.length params } in
  let locals = bind_slots ctx params 0 in
  compile_expr { ctx with env = { locals; free = free_bindings } } ~tail:true c.body;
  emit ctx Instr.Return;
  {
    Instr.required = List.length c.params;
    rest = c.rest <> None;
    frame = st.hw;
    instrs = finish st;
  }

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

(* A top-level form compiles to a zero-argument code block: [expr], then
   [tail_instrs], which end in Halt with acc holding the form's value. *)
let toplevel_code linker name expr tail_instrs =
  let st = clause_state ~assigned:(assigned_vars expr SSet.empty) ~params:0 in
  let ctx = { linker; st; env = { locals = []; free = [] }; next = 0 } in
  compile_expr ctx ~tail:false expr;
  List.iter (emit ctx) tail_instrs;
  { Instr.name; clauses = [ { required = 0; rest = false; frame = st.hw; instrs = finish st } ] }

let compile_toplevel_expr linker expr =
  toplevel_code linker "toplevel" (simplify_in SSet.empty expr) [ Instr.Halt ]

let compile_define linker name expr =
  toplevel_code linker ("define " ^ name) (simplify_in SSet.empty expr)
    [ Instr.Global_define (linker.global_cell name); Instr.Imm Gbc_runtime.Word.void; Instr.Halt ]

let rec compile_toplevel linker (d : Sexpr.t) : Instr.code list =
  match d with
  | Sexpr.Pair (Sexpr.Sym "define", rest) -> (
      match rest with
      | Sexpr.Pair (Sexpr.Sym name, Sexpr.Pair (init, Sexpr.Null)) ->
          [ compile_define linker name (parse init) ]
      | Sexpr.Pair (Sexpr.Sym name, Sexpr.Null) ->
          (* (define name): bind to #void *)
          compile_toplevel linker
            (Sexpr.list_of [ Sexpr.Sym "define"; Sexpr.Sym name; Sexpr.Bool false ])
      | Sexpr.Pair (Sexpr.Pair (Sexpr.Sym name, formals), body) ->
          let params, rst = parse_formals formals in
          [ compile_define linker name
              (Lambda { lam_name = name; clauses = [ make_clause params rst (as_list body) ] }) ]
      | _ -> error "bad define: %s" (Sexpr.to_string d))
  | Sexpr.Pair (Sexpr.Sym "begin", forms) ->
      List.concat_map (compile_toplevel linker) (as_list forms)
  | Sexpr.Pair (Sexpr.Sym "define-record-type", rest) ->
      compile_toplevel linker (expand_define_record_type rest)
  | _ -> [ compile_toplevel_expr linker (parse d) ]

(* R7RS-style record definitions, expanded to definitions over the
   %record primitives.  The type name symbol doubles as the runtime tag:

   (define-record-type point
     (make-point x y)
     point?
     (x point-x set-point-x!)
     (y point-y))                                                        *)
and expand_define_record_type rest =
  match as_list rest with
  | Sexpr.Sym type_name :: ctor_spec :: Sexpr.Sym pred_name :: field_specs ->
      let fields =
        List.map
          (fun spec ->
            match as_list spec with
            | [ Sexpr.Sym f; Sexpr.Sym acc ] -> (f, acc, None)
            | [ Sexpr.Sym f; Sexpr.Sym acc; Sexpr.Sym setter ] -> (f, acc, Some setter)
            | _ -> error "bad field spec: %s" (Sexpr.to_string spec))
          field_specs
      in
      let field_index f =
        let rec loop i = function
          | [] -> error "constructor argument %s is not a field" f
          | (g, _, _) :: rest -> if g = f then i else loop (i + 1) rest
        in
        loop 0 fields
      in
      let ctor_name, ctor_args =
        match as_list ctor_spec with
        | Sexpr.Sym c :: args -> (c, List.map sym_name args)
        | _ -> error "bad constructor spec: %s" (Sexpr.to_string ctor_spec)
      in
      List.iter (fun a -> ignore (field_index a)) ctor_args;
      let tag = Sexpr.list_of [ Sexpr.Sym "quote"; Sexpr.Sym type_name ] in
      let sym s = Sexpr.Sym s in
      let deflam name params body =
        Sexpr.list_of
          [ sym "define"; Sexpr.Pair (sym name, Sexpr.list_of (List.map sym params)); body ]
      in
      (* Constructor: fields in declared order; absent from the constructor
         spec means initialized to #f. *)
      let ctor_body =
        Sexpr.list_of
          (sym "%make-record" :: tag
          :: List.map
               (fun (f, _, _) ->
                 if List.mem f ctor_args then sym f else Sexpr.Bool false)
               fields)
      in
      let defs =
        deflam ctor_name ctor_args ctor_body
        :: deflam pred_name [ "r" ] (Sexpr.list_of [ sym "%record?"; sym "r"; tag ])
        :: List.concat
             (List.mapi
                (fun i (_, acc, setter) ->
                  let geti =
                    deflam acc [ "r" ]
                      (Sexpr.list_of [ sym "%record-field"; sym "r"; tag; Sexpr.Int i ])
                  in
                  match setter with
                  | None -> [ geti ]
                  | Some s ->
                      [
                        geti;
                        deflam s [ "r"; "v" ]
                          (Sexpr.list_of
                             [ sym "%record-field-set!"; sym "r"; tag; Sexpr.Int i; sym "v" ]);
                      ])
                fields)
      in
      Sexpr.Pair (sym "begin", Sexpr.list_of defs)
  | _ -> error "bad define-record-type"
