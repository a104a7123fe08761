(** Bytecode for the stack VM.

    Flat-closure model: a closure captures the values (or boxes, for
    assigned variables) of its free variables; locals live in the value
    stack frame.  A clause's frame holds its parameters and then the
    slots of the [let]s and jump-compiled loops inside it, which cost no
    closure and no call.  [case-lambda] closures carry several clauses
    sharing one free-variable list; calls dispatch on argument count. *)

(** The primitives the compiler open-codes.  A global application
    [(name a b)] or [(name x)] of an op in {!ops}, with the op's arity and
    [name] not lexically bound, compiles to one [Op] instruction.  At run
    time it applies the op in place when the global cell still holds the
    primitive's original closure and the operands need no generic path
    (two fixnums without overflow for the numeric ops, a pair for
    [car]/[cdr]); otherwise it makes the ordinary call. *)
type kind =
  | Add
  | Sub
  | Num_eq
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Car
  | Cdr
  | Is_null
  | Is_pair
  | Not
  | Is_zero

type op = {
  index : int;  (** position in {!ops}: the image code and the machine's slot *)
  kind : kind;
  name : string;  (** the global it stands for *)
  arity : int;  (** 1 or 2 *)
}

(** The one table of open-coded ops. *)
let ops : op array =
  Array.mapi
    (fun index (kind, name, arity) -> { index; kind; name; arity })
    [|
      (Add, "+", 2);
      (Sub, "-", 2);
      (Num_eq, "=", 2);
      (Lt, "<", 2);
      (Gt, ">", 2);
      (Le, "<=", 2);
      (Ge, ">=", 2);
      (Eq, "eq?", 2);
      (Car, "car", 1);
      (Cdr, "cdr", 1);
      (Is_null, "null?", 1);
      (Is_pair, "pair?", 1);
      (Not, "not", 1);
      (Is_zero, "zero?", 1);
    |]

(** The op named [name], if any. *)
let find_op name = Array.find_opt (fun o -> o.name = name) ops

type instr =
  | Const of int  (** constants table index -> acc *)
  | Imm of int  (** raw immediate/fixnum word -> acc *)
  | Local_ref of int  (** acc := stack[fp + i] (raw slot: value or box) *)
  | Local_set of int  (** stack[fp + i] := acc (raw): binds a let slot *)
  | Local_clear of { slot : int; count : int }
      (** stack[fp + slot .. fp + slot + count - 1] := void: a finished
          let's slots stop holding its values *)
  | Local_pop of { slot : int; count : int }
      (** pop the top [count] stack words into slots [slot ..], the
          first pushed into [slot]: a loop's new values *)
  | Free_ref of int  (** acc := closure free var i (raw) *)
  | Unbox  (** acc := box-ref acc *)
  | Local_set_box of int  (** box-set! stack[fp+i] acc *)
  | Free_set_box of int
  | Global_ref of int  (** acc := global cell (error if unbound) *)
  | Global_set of int  (** cell := acc (error if unbound) *)
  | Global_define of int  (** cell := acc *)
  | Push
  | Box_local of int  (** stack[fp+i] := box(stack[fp+i]): clause prologue *)
  | Make_closure of { code_id : int; nfree : int }
      (** capture top [nfree] stack words (popped) as free vars *)
  | Branch_false of int  (** jump to index if acc is #f *)
  | Jump of int
  | Loop of int  (** backward jump to a loop head, after a safepoint *)
  | Call of int  (** operator in acc, n args on stack *)
  | Tail_call of int
  | Op of { op : op; cell : int; tail : bool }
      (** open-coded [(op stack-top acc)], or [(op acc)] for arity 1;
          [cell] is the op's global cell *)
  | Return
  | Halt

type clause = {
  required : int;  (** required parameter count *)
  rest : bool;  (** accepts extra args collected into a list *)
  frame : int;
      (** local slots: the parameters (and rest list), then let slots;
          a call fills the let slots with void *)
  instrs : instr array;
}

type code = {
  name : string;  (** for error messages and disassembly *)
  clauses : clause list;  (** one for [lambda], several for [case-lambda] *)
}

(** An operand, tagged by its kind: a constants-table index, a raw word, a
    local slot, a range of local slots (first, count), a free slot, a global
    cell, a code id, a jump target, a count, an open-coded op (and tail). *)
type operand =
  | Constant of int | Raw of int | Slot of int | Slots of int * int | Free of int
  | Cell of int | Code of int | Target of int | Count of int | Open of op * bool

(** Each opcode's byte in the scheme/codes section (never reorder, only
    append), printed name and operands: the codec, printer and {!check}. *)
let describe = function
  | Const k -> (0, "const", [ Constant k ])
  | Imm w -> (1, "imm", [ Raw w ])
  | Local_ref k -> (2, "local", [ Slot k ])
  | Free_ref k -> (3, "free", [ Free k ])
  | Unbox -> (4, "unbox", [])
  | Local_set_box k -> (5, "local-set-box", [ Slot k ])
  | Free_set_box k -> (6, "free-set-box", [ Free k ])
  | Global_ref c -> (7, "global", [ Cell c ])
  | Global_set c -> (8, "global-set", [ Cell c ])
  | Global_define c -> (9, "global-define", [ Cell c ])
  | Push -> (10, "push", [])
  | Box_local k -> (11, "box-local", [ Slot k ])
  | Make_closure { code_id; nfree } -> (12, "closure", [ Code code_id; Count nfree ])
  | Branch_false t -> (13, "brf", [ Target t ])
  | Jump t -> (14, "jmp", [ Target t ])
  | Call n -> (15, "call", [ Count n ])
  | Tail_call n -> (16, "tailcall", [ Count n ])
  | Return -> (17, "ret", [])
  | Halt -> (18, "halt", [])
  | Op { op; cell; tail } -> (19, (if tail then "tailop" else "op"), [ Cell cell; Open (op, tail) ])
  | Local_set k -> (20, "local-set", [ Slot k ])
  | Local_clear { slot; count } -> (21, "local-clear", [ Slots (slot, count) ])
  | Local_pop { slot; count } -> (22, "local-pop", [ Slots (slot, count) ])
  | Loop t -> (23, "loop", [ Target t ])

(** An operand's integers as an image stores them; an op is [index * 2 + tail]. *)
let operand_ints = function
  | Constant n | Raw n | Slot n | Free n | Cell n | Code n | Target n | Count n -> [ n ]
  | Slots (slot, count) -> [ slot; count ]
  | Open (op, tail) -> [ (op.index * 2) + Bool.to_int tail ]

let pp_instr ppf i =
  match describe i with
  | _, name, [] -> Format.pp_print_string ppf name
  | _, name, [ Cell cell; Open (op, _) ] -> Format.fprintf ppf "%s %s %d" name op.name cell
  | _, name, operands ->
      let ints = List.concat_map operand_ints operands in
      Format.fprintf ppf "%s %s" name (String.concat "/" (List.map string_of_int ints))

let pp_clause ppf c =
  Format.fprintf ppf "  clause: %d arg%s%s, frame %d@." c.required
    (if c.required = 1 then "" else "s") (if c.rest then " + rest" else "") c.frame;
  Array.iteri (fun i instr -> Format.fprintf ppf "    %3d  %a@." i pp_instr instr) c.instrs

let pp_code ppf code =
  Format.fprintf ppf "%s:@." code.name;
  List.iter (pp_clause ppf) code.clauses

exception Error of string  (** a Scheme error: [Machine.Error] is this exception *)

(** Check [code] against tables of [nconsts] constants, [ncells] global
    cells and [ncodes] earlier codes: each clause's frame by its parameters
    plus its length, each operand by its kind (free slots are bounded when
    read), and each path by the stack: no pop below the frame, one depth
    where paths join, no fall past the end.  Returns each clause's stack
    depth above the frame per pc, -1 where unreachable; raises {!Error}. *)
let check ~nconsts ~ncells ~ncodes code =
  let fail fmt = Format.kasprintf (fun s -> raise (Error (code.name ^ ": " ^ s))) fmt in
  let clause { required; rest; frame; instrs } =
    let n = Array.length instrs and params = required + Bool.to_int rest in
    if frame < params then fail "frame %d smaller than its %d parameters" frame params;
    (* The compiler spends an instruction per let slot at least. *)
    if frame - params > n then
      raise (Error (Printf.sprintf "%d let slots for %d instructions" (frame - params) n));
    let within what k bound = if k < 0 || k >= bound then fail "%s %d not in [0, %d)" what k bound in
    let operand = function
      | Constant k -> within "constant index" k nconsts
      | Slot k -> within "local slot" k frame
      | Slots (k, count) when k < 0 || count < 0 || count > frame - k ->
          fail "local slot %d not in [0, %d)" (if k < 0 then k else k + count - 1) frame
      | Cell c -> within "global cell" c ncells
      | Code id -> within "code id" id ncodes
      | Target t -> within "jump target" t n
      | Count k -> if k < 0 then fail "count %d is negative" k
      | Open (op, _) when op.index < 0 || op.index >= Array.length ops || ops.(op.index) != op ->
          fail "open-coded op %s is not Instr.ops.(%d)" op.name op.index
      | Raw w when Gbc_runtime.Word.(is_pointer w || w = forward_marker) ->
          fail "raw word %d is not an immediate" w
      | Raw _ | Free _ | Slots _ | Open _ -> ()
    in
    Array.iter (fun i -> let _, _, o = describe i in List.iter operand o) instrs;
    let depth = Array.make n (-1) and work = Array.make n 0 and top = ref 0 in
    let reach pc d =
      if pc >= n then fail "pc %d past the end of the clause" pc
      else if depth.(pc) < 0 then (depth.(pc) <- d; work.(!top) <- pc; incr top)
      else if depth.(pc) <> d then fail "stack depths %d and %d meet at %d" depth.(pc) d pc
    in
    let pop pc d k =
      if k > d then fail "stack underflow at %d: %a pops %d of %d" pc pp_instr instrs.(pc) k d;
      d - k
    in
    reach 0 0;
    while !top > 0 do
      decr top;
      let pc = work.(!top) in
      let d = depth.(pc) in
      match instrs.(pc) with
      | Push -> reach (pc + 1) (d + 1)
      | Local_pop { count = k; _ } | Make_closure { nfree = k; _ } | Call k ->
          reach (pc + 1) (pop pc d k)
      | Tail_call k -> ignore (pop pc d k)
      | Op { op; tail; _ } ->
          let d = pop pc d (op.arity - 1) in
          if not tail then reach (pc + 1) d
      | Branch_false t -> reach (pc + 1) d; reach t d
      | Jump t | Loop t -> reach t d
      | Return | Halt -> ()
      | _ -> reach (pc + 1) d
    done;
    depth
  in
  Array.of_list (List.map clause code.clauses)
