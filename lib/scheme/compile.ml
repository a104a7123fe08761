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
(* Emission                                                            *)

type binding = { bname : string; boxed : bool }
type cenv = { locals : binding list; free : binding list }

let empty_cenv = { locals = []; free = [] }

type emitter = { mutable instrs : Instr.instr list; mutable len : int }

let emitter () = { instrs = []; len = 0 }

let emit e i =
  e.instrs <- i :: e.instrs;
  e.len <- e.len + 1

(* Reserve a branch slot, to be patched with the final target. *)
let emit_patch e make =
  let at = e.len in
  emit e (Instr.Jump (-1));
  fun () ->
    (* targets are known only after full emission; rewrite on finish *)
    (at, make)

let finish e patches =
  let arr = Array.of_list (List.rev e.instrs) in
  List.iter (fun (at, make) -> arr.(at) <- make ()) patches;
  arr

let index_of name bindings =
  let rec loop i = function
    | [] -> None
    | b :: rest -> if b.bname = name then Some (i, b) else loop (i + 1) rest
  in
  loop 0 bindings

type ctx = {
  linker : linker;
  mutable patches : (int * (unit -> Instr.instr)) list;
  e : emitter;
  env : cenv;
}

let rec compile_expr ctx ~tail expr =
  match expr with
  | Quote d -> compile_quote ctx d
  | Var name -> compile_var ctx name
  | Set (name, e) ->
      compile_expr ctx ~tail:false e;
      compile_set ctx name
  | If (c, t, f) ->
      compile_expr ctx ~tail:false c;
      let else_pos = ref (-1) and end_pos = ref (-1) in
      let at_brf = ctx.e.len in
      emit ctx.e (Instr.Jump (-1));
      ctx.patches <- (at_brf, fun () -> Instr.Branch_false !else_pos) :: ctx.patches;
      compile_expr ctx ~tail t;
      if tail then begin
        (* No join: the then-arm returns explicitly (dead code when it ended
           in a tail call), the else-arm flows to the clause's Return. *)
        emit ctx.e Instr.Return;
        else_pos := ctx.e.len;
        compile_expr ctx ~tail f
      end
      else begin
        let at_jmp = ctx.e.len in
        emit ctx.e (Instr.Jump (-1));
        ctx.patches <- (at_jmp, fun () -> Instr.Jump !end_pos) :: ctx.patches;
        else_pos := ctx.e.len;
        compile_expr ctx ~tail f;
        end_pos := ctx.e.len
      end
  | Begin [] -> emit ctx.e (Instr.Imm Gbc_runtime.Word.void)
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
      match open_op ctx f args with
      | Some op ->
          (* The last operand stays in acc; the cell is linked after the
             operands, where the generic path would read the operator. *)
          List.iteri
            (fun i a ->
              compile_expr ctx ~tail:false a;
              if i < op.Instr.arity - 1 then emit ctx.e Instr.Push)
            args;
          emit ctx.e (Instr.Op { op; cell = ctx.linker.global_cell op.Instr.name; tail })
      | None ->
          List.iter
            (fun a ->
              compile_expr ctx ~tail:false a;
              emit ctx.e Instr.Push)
            args;
          compile_expr ctx ~tail:false f;
          emit ctx.e
            (if tail then Instr.Tail_call (List.length args) else Instr.Call (List.length args)))

(* The op an application compiles to: a global (not lexically bound) in
   the open-coded table, applied to exactly the op's arity. *)
and open_op ctx f args =
  match f with
  | Var name -> (
      match Instr.find_op name with
      | Some op
        when op.Instr.arity = List.length args
             && index_of name ctx.env.locals = None
             && index_of name ctx.env.free = None ->
          Some op
      | _ -> None)
  | _ -> None

and compile_quote ctx d =
  let open Gbc_runtime in
  match d with
  | Sexpr.Int n -> emit ctx.e (Instr.Imm (Word.of_fixnum n))
  | Sexpr.Bool b -> emit ctx.e (Instr.Imm (Word.of_bool b))
  | Sexpr.Char c -> emit ctx.e (Instr.Imm (Word.of_char c))
  | Sexpr.Null -> emit ctx.e (Instr.Imm Word.nil)
  | _ -> emit ctx.e (Instr.Const (ctx.linker.add_const d))

and compile_var ctx name =
  match index_of name ctx.env.locals with
  | Some (i, b) ->
      emit ctx.e (Instr.Local_ref i);
      if b.boxed then emit ctx.e Instr.Unbox
  | None -> (
      match index_of name ctx.env.free with
      | Some (i, b) ->
          emit ctx.e (Instr.Free_ref i);
          if b.boxed then emit ctx.e Instr.Unbox
      | None -> emit ctx.e (Instr.Global_ref (ctx.linker.global_cell name)))

and compile_set ctx name =
  match index_of name ctx.env.locals with
  | Some (i, b) ->
      assert b.boxed;
      emit ctx.e (Instr.Local_set_box i)
  | None -> (
      match index_of name ctx.env.free with
      | Some (i, b) ->
          assert b.boxed;
          emit ctx.e (Instr.Free_set_box i)
      | None -> emit ctx.e (Instr.Global_set (ctx.linker.global_cell name)))

and compile_lambda ctx { lam_name; clauses } =
  (* Free variables: those used by any clause and bound in the enclosing
     environment (anything else is a global reference). *)
  let enclosing name =
    index_of name ctx.env.locals <> None || index_of name ctx.env.free <> None
  in
  let free_set =
    List.fold_left (fun acc c -> free_vars (clause_bound c) c.body acc) SSet.empty clauses
  in
  let free_names = List.filter enclosing (SSet.elements free_set) in
  (* Their boxedness comes from the enclosing binding. *)
  let free_bindings =
    List.map
      (fun name ->
        match index_of name ctx.env.locals with
        | Some (_, b) -> { bname = name; boxed = b.boxed }
        | None -> (
            match index_of name ctx.env.free with
            | Some (_, b) -> { bname = name; boxed = b.boxed }
            | None -> assert false))
      free_names
  in
  let compiled_clauses = List.map (compile_clause ctx.linker ~free_bindings) clauses in
  let code_id = ctx.linker.add_code { Instr.name = lam_name; clauses = compiled_clauses } in
  (* Capture: push the raw slot (value, or box for assigned variables). *)
  List.iter
    (fun name ->
      (match index_of name ctx.env.locals with
      | Some (i, _) -> emit ctx.e (Instr.Local_ref i)
      | None -> (
          match index_of name ctx.env.free with
          | Some (i, _) -> emit ctx.e (Instr.Free_ref i)
          | None -> assert false));
      emit ctx.e Instr.Push)
    free_names;
  emit ctx.e (Instr.Make_closure { code_id; nfree = List.length free_names })

and compile_clause linker ~free_bindings c =
  let c = { c with body = simplify_in (clause_bound c) c.body } in
  let assigned = assigned_vars c.body SSet.empty in
  let param_binding p = { bname = p; boxed = SSet.mem p assigned } in
  let locals = List.map param_binding (c.params @ Option.to_list c.rest) in
  let env = { locals; free = free_bindings } in
  let e = emitter () in
  List.iteri (fun i b -> if b.boxed then emit e (Instr.Box_local i)) locals;
  let ctx = { linker; patches = []; e; env } in
  compile_expr ctx ~tail:true c.body;
  emit e Instr.Return;
  {
    Instr.required = List.length c.params;
    rest = c.rest <> None;
    instrs = finish e ctx.patches;
  }

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

(* A top-level form compiles to a zero-argument code block ending in Halt,
   with acc holding the form's value. *)
let compile_toplevel_expr linker expr =
  let e = emitter () in
  let ctx = { linker; patches = []; e; env = empty_cenv } in
  compile_expr ctx ~tail:false (simplify_in SSet.empty expr);
  emit e Instr.Halt;
  { Instr.name = "toplevel"; clauses = [ { required = 0; rest = false; instrs = finish e ctx.patches } ] }

let rec compile_toplevel linker (d : Sexpr.t) : Instr.code list =
  match d with
  | Sexpr.Pair (Sexpr.Sym "define", rest) -> (
      match rest with
      | Sexpr.Pair (Sexpr.Sym name, Sexpr.Pair (init, Sexpr.Null)) ->
          let e = emitter () in
          let ctx = { linker; patches = []; e; env = empty_cenv } in
          compile_expr ctx ~tail:false (parse init);
          emit e (Instr.Global_define (linker.global_cell name));
          emit e (Instr.Imm Gbc_runtime.Word.void);
          emit e Instr.Halt;
          [ { Instr.name = "define " ^ name;
              clauses = [ { required = 0; rest = false; instrs = finish e ctx.patches } ] } ]
      | Sexpr.Pair (Sexpr.Sym name, Sexpr.Null) ->
          (* (define name): bind to #void *)
          compile_toplevel linker
            (Sexpr.list_of [ Sexpr.Sym "define"; Sexpr.Sym name; Sexpr.Bool false ])
      | Sexpr.Pair (Sexpr.Pair (Sexpr.Sym name, formals), body) ->
          let params, rst = parse_formals formals in
          let lam = Lambda { lam_name = name; clauses = [ make_clause params rst (as_list body) ] } in
          let e = emitter () in
          let ctx = { linker; patches = []; e; env = empty_cenv } in
          compile_expr ctx ~tail:false lam;
          emit e (Instr.Global_define (linker.global_cell name));
          emit e (Instr.Imm Gbc_runtime.Word.void);
          emit e Instr.Halt;
          [ { Instr.name = "define " ^ name;
              clauses = [ { required = 0; rest = false; instrs = finish e ctx.patches } ] } ]
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
