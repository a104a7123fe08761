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

let pp_instr ppf = function
  | Const i -> Format.fprintf ppf "const %d" i
  | Imm w -> Format.fprintf ppf "imm %d" w
  | Local_ref i -> Format.fprintf ppf "local %d" i
  | Local_set i -> Format.fprintf ppf "local-set %d" i
  | Local_clear { slot; count } -> Format.fprintf ppf "local-clear %d/%d" slot count
  | Local_pop { slot; count } -> Format.fprintf ppf "local-pop %d/%d" slot count
  | Free_ref i -> Format.fprintf ppf "free %d" i
  | Unbox -> Format.pp_print_string ppf "unbox"
  | Local_set_box i -> Format.fprintf ppf "local-set-box %d" i
  | Free_set_box i -> Format.fprintf ppf "free-set-box %d" i
  | Global_ref i -> Format.fprintf ppf "global %d" i
  | Global_set i -> Format.fprintf ppf "global-set %d" i
  | Global_define i -> Format.fprintf ppf "global-define %d" i
  | Push -> Format.pp_print_string ppf "push"
  | Box_local i -> Format.fprintf ppf "box-local %d" i
  | Make_closure { code_id; nfree } -> Format.fprintf ppf "closure %d/%d" code_id nfree
  | Branch_false i -> Format.fprintf ppf "brf %d" i
  | Jump i -> Format.fprintf ppf "jmp %d" i
  | Loop i -> Format.fprintf ppf "loop %d" i
  | Call n -> Format.fprintf ppf "call %d" n
  | Tail_call n -> Format.fprintf ppf "tailcall %d" n
  | Op { op; cell; tail } ->
      Format.fprintf ppf "%s %s %d" (if tail then "tailop" else "op") op.name cell
  | Return -> Format.pp_print_string ppf "ret"
  | Halt -> Format.pp_print_string ppf "halt"
