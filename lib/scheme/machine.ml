(** The stack VM executing {!Instr} code over the simulated heap.

    All VM state that can reference heap objects — the value stack, the
    accumulator, the current closure, saved closures in control frames, the
    constants table — is registered as a root scanner, so a collection can
    safely happen at any {e safepoint} (the beginning of every call).  The
    collect-request handler, if one is installed from Scheme, is invoked
    re-entrantly through {!apply_closure}. *)

open Gbc_runtime

exception Error = Instr.Error
exception Exit_signal

exception Load_image_signal of string
(* Raised by the [load-heap-image] primitive.  The machine cannot replace
   itself mid-execution, so the driver that owns it catches this, builds a
   fresh machine from the image and continues on that one; forms remaining
   in the input that ran the primitive are discarded, exec-like. *)

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* The top-level codes {!run_code} has registered, by physical identity. *)
module Code_ids = Hashtbl.Make (struct
  type t = Instr.code

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type special = Plain | Callcc | Apply

type prim = {
  pname : string;
  arity_min : int;
  arity_max : int;  (** -1 = variadic *)
  special : special;  (** [Callcc], [Apply]: the VM dispatches; [fn] never runs *)
  fn : t -> int -> int -> Word.t;
}

and t = {
  ctx : Gbc.Ctx.t;
  heap : Heap.t;
  stats : Stats.t;  (** the heap's, for the VM call counters *)
  symtab : Symtab.t;
  codes : Instr.code Vec.Poly.t;
  clauses : clause array Vec.Poly.t;
      (** per code id, its clauses ready to run: where calls, returns and
          continuations find their steps *)
  top_ids : int Code_ids.t;  (** {!run_code}'s registered top-level codes *)
  consts : Vec.Int.t;  (** heap words, rooted *)
  mutable stack : int array;
  mutable sp : int;
  mutable fp : int;
  mutable acc : Word.t;
  mutable clos : Word.t;
  mutable control : int array;
      (** [frame_size] ints per frame: caller's code id, clause, pc, fp and
          closure.  Code id -1 marks a host boundary, the synthetic caller
          of {!apply_closure}, which returns to {!halt}. *)
  mutable depth : int;  (** live control frames *)
  mutable base : int;  (** control depth of the running activation's base ({!enter}) *)
  global_names : (int, string) Hashtbl.t;
  prims : prim Vec.Poly.t;
  op_prims : Word.t array;
      (** per {!Instr.ops} entry, its primitive's closure as first bound,
          or [no_word]; rooted *)
  out : Buffer.t;  (** console output *)
  mutable echo : bool;  (** also write console output to stdout *)
  mutable in_handler : bool;
  mutable scanner_id : int;
  mutable gc_ring : Telemetry.Ring.t option;
}

(* A checked clause as the machine runs it. *)
and clause = {
  shape : Instr.clause;  (** its bytecode, arity and frame *)
  steps : (t -> Word.t) array;
      (** per pc, the closure that runs from there ({!steps}), built when
          the clause is first entered; one more, past the last pc, halts *)
  depths : int array;  (** {!Instr.check}'s stack depth above the frame per pc *)
  build : unit -> unit;  (** builds [steps], once *)
}

(* A call site: where its call returns, by the caller's code id (-1 for
   the host), clause and pc, and the step at that pc. *)
and site = { code_id : int; clause_no : int; pc : int; next : t -> Word.t }

(* Never a value a cell or an operand holds (the collector's forwarding
   marker): an unfilled [op_prims] slot, and "take the generic path". *)
let no_word = Word.forward_marker

let dummy_code : Instr.code = { name = "dummy"; clauses = [] }

let frame_size = 5

let dummy_prim =
  { pname = ""; arity_min = 0; arity_max = 0; special = Plain; fn = (fun _ _ _ -> Word.void) }

let create ?(ctx : Gbc.Ctx.t option) ?config () =
  let ctx = match ctx with Some c -> c | None -> Gbc.Ctx.create ?config () in
  let heap = ctx.Gbc.Ctx.heap in
  let m =
    {
      ctx;
      heap;
      stats = Heap.stats heap;
      symtab = Symtab.create heap;
      codes = Vec.Poly.create ~dummy:dummy_code ();
      clauses = Vec.Poly.create ~dummy:[||] ();
      top_ids = Code_ids.create 16;
      consts = Vec.Int.create ();
      stack = Array.make 4096 0;
      sp = 0;
      fp = 0;
      acc = Word.void;
      clos = Word.nil;
      control = Array.make (256 * frame_size) 0;
      depth = 0;
      base = 0;
      global_names = Hashtbl.create 64;
      prims = Vec.Poly.create ~dummy:dummy_prim ();
      op_prims = Array.make (Array.length Instr.ops) no_word;
      out = Buffer.create 256;
      echo = false;
      in_handler = false;
      scanner_id = -1;
      gc_ring = None;
    }
  in
  (* The Scheme system always observes its collector: gc-history,
     gc-phase-stats and pause-histogram read from the telemetry hub. *)
  Telemetry.set_enabled (Heap.telemetry heap) true;
  m.gc_ring <- Some (Telemetry.Ring.attach ~capacity:128 (Heap.telemetry heap));
  let scanner rewrite =
    for i = 0 to m.sp - 1 do
      m.stack.(i) <- rewrite m.stack.(i)
    done;
    m.acc <- rewrite m.acc;
    m.clos <- rewrite m.clos;
    for i = 0 to m.depth - 1 do
      let o = (i * frame_size) + 4 in
      m.control.(o) <- rewrite m.control.(o)
    done;
    Vec.Int.iteri m.consts ~f:(fun i w -> Vec.Int.set m.consts i (rewrite w));
    Array.iteri (fun i w -> m.op_prims.(i) <- rewrite w) m.op_prims
  in
  m.scanner_id <- Heap.add_scanner heap scanner;
  m

let dispose m =
  Heap.remove_scanner m.heap m.scanner_id;
  Option.iter Telemetry.Ring.detach m.gc_ring;
  m.gc_ring <- None

let gc_ring m = m.gc_ring

let heap m = m.heap
let ctx m = m.ctx
let symtab m = m.symtab

let console_output m = Buffer.contents m.out

let clear_console m = Buffer.clear m.out

let set_echo m b = m.echo <- b
let in_handler m = m.in_handler
let set_in_handler m b = m.in_handler <- b

let print_string m s =
  Buffer.add_string m.out s;
  if m.echo then print_string s

(* ------------------------------------------------------------------ *)
(* Globals, constants, code                                            *)

(** Root cell of global variable [name], created unbound on first use. *)
let global_cell m name =
  let sym = Symtab.intern m.symtab name in
  let idx = Obj.symbol_global m.heap sym in
  if idx >= 0 then idx
  else begin
    let cell = Heap.new_cell m.heap Word.unbound in
    Obj.symbol_set_global m.heap sym cell;
    Hashtbl.replace m.global_names cell name;
    (* A symbol naming a global binding must survive even though the symbol
       table holds it weakly (only unbound oblist entries are pruned). *)
    ignore (Heap.new_cell m.heap sym);
    cell
  end

let global_name m cell =
  match Hashtbl.find_opt m.global_names cell with Some n -> n | None -> "?"

let define_global m name w = Heap.write_cell m.heap (global_cell m name) w

let lookup_global m name =
  let w = Heap.read_cell m.heap (global_cell m name) in
  if Word.equal w Word.unbound then None else Some w

(* Materialize a datum into the heap (for constants). *)
let rec materialize m (d : Sexpr.t) : Word.t =
  let h = m.heap in
  match d with
  | Sexpr.Null -> Word.nil
  | Sexpr.Bool b -> Word.of_bool b
  | Sexpr.Int n -> Word.of_fixnum n
  | Sexpr.Float f -> Obj.make_flonum h f
  | Sexpr.Char c -> Word.of_char c
  | Sexpr.Str s -> Obj.string_of_ocaml h s
  | Sexpr.Sym s -> Symtab.intern m.symtab s
  | Sexpr.Pair (a, dd) ->
      (* Build cdr first and root it across the car's materialization. *)
      let tail = materialize m dd in
      Heap.with_cell h tail (fun c ->
          let head = materialize m a in
          Obj.cons h head (Heap.read_cell h c))
  | Sexpr.Vector els ->
      let v = Obj.make_vector h ~len:(Array.length els) ~init:Word.nil in
      Heap.with_cell h v (fun c ->
          Array.iteri
            (fun i e ->
              let w = materialize m e in
              Obj.vector_set h (Heap.read_cell h c) i w)
            els;
          Heap.read_cell h c)

let add_const m d =
  let w = materialize m d in
  Vec.Int.push m.consts w;
  Vec.Int.length m.consts - 1

let code m id =
  if id < 0 || id >= Vec.Poly.length m.codes then error "closure: code id %d out of range" id;
  Vec.Poly.get m.codes id

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

(* Closure layout: field 0 = code id (>= 0: codes table; < 0: primitive
   -1 - prim_id); fields 1.. = free variables. *)

let make_closure_obj m ~code_id ~nfree =
  let c = Obj.make_typed m.heap ~code:Obj.code_closure ~len:(1 + nfree) ~init:Word.nil () in
  Obj.set_field m.heap c 0 (Word.of_fixnum code_id);
  c

(* Field 0 of closure [c], through the one check of its kind: a code id,
   or -1 - prim id. *)
let closure_id m c =
  let w = if Obj.typed_len m.heap c > 0 then Heap.load m.heap (Word.addr c + 1) else Word.void in
  if not (Word.is_fixnum w) then error "closure: no code id in field 0";
  Word.to_fixnum w

let is_procedure m w =
  Obj.has_code m.heap w Obj.code_closure || Obj.has_code m.heap w Obj.code_continuation

(** Register a primitive and bind it to its global name.  Special handling
    follows the primitive, not the name: [(define k call/cc)] still works. *)
let define_prim m ~name ~arity_min ?(arity_max = arity_min) fn =
  let special =
    match name with
    | "call-with-current-continuation" | "call/cc" -> Callcc
    | "apply" -> Apply
    | _ -> Plain
  in
  Vec.Poly.push m.prims { pname = name; arity_min; arity_max; special; fn };
  let prim_id = Vec.Poly.length m.prims - 1 in
  (* On a machine rebuilt from a heap image the global already holds this
     primitive's closure (installation order is fixed, so the prim ids
     match), and re-making it would allocate — spoiling the image's
     save → load → save byte identity.  Bind only when unbound. *)
  if lookup_global m name = None then begin
    let c = make_closure_obj m ~code_id:(-1 - prim_id) ~nfree:0 in
    define_global m name c
  end;
  (* An open-coded op's fast path stands for this primitive only while
     its cell holds this very closure.  A global already rebound (in a
     restored image, say) leaves the slot empty: every call is generic. *)
  match (Instr.find_op name, lookup_global m name) with
  | Some op, Some c
    when Obj.has_code m.heap c Obj.code_closure && Obj.typed_len m.heap c = 1
         && Word.equal (Obj.field m.heap c 0) (Word.of_fixnum (-1 - prim_id)) ->
      m.op_prims.(op.Instr.index) <- c
  | _ -> ()

(** Value-stack slot [i]: a primitive's arguments are [base .. base + n - 1]. *)
let arg m i = m.stack.(i)

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let ensure_stack m n =
  if n > Array.length m.stack then begin
    let size = ref (Array.length m.stack) in
    while !size < n do
      size := !size * 2
    done;
    let stack = Array.make !size 0 in
    Array.blit m.stack 0 stack 0 m.sp;
    m.stack <- stack
  end

let[@inline] push m w =
  if m.sp = Array.length m.stack then ensure_stack m (m.sp + 1);
  m.stack.(m.sp) <- w;
  m.sp <- m.sp + 1

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Index of the first clause from [i] accepting [n] arguments, or -1. *)
let rec select_clause (clauses : clause array) n i =
  if i = Array.length clauses then -1
  else
    let c = clauses.(i).shape in
    if (c.required = n && not c.rest) || (c.required <= n && c.rest) then i
    else select_clause clauses n (i + 1)

(* Collect [n - required] extra arguments (stack top) into a list placed at
   slot [fp + required]. *)
let build_rest m ~required ~n =
  let lst = ref Word.nil in
  for i = n - 1 downto required do
    lst := Obj.cons m.heap m.stack.(m.fp + i) !lst
  done;
  m.stack.(m.fp + required) <- !lst;
  m.sp <- m.fp + required + 1

(* Push the elements of the proper list [l]; returns how many. *)
let rec spread_list m l count =
  if Word.is_nil l then count
  else begin
    if not (Word.is_pair_ptr l) then error "apply: improper argument list";
    push m (Obj.car m.heap l);
    spread_list m (Obj.cdr m.heap l) (count + 1)
  end

(* Push a control frame, doubling the array when full. *)
let[@inline] push_frame m ~code_id ~clause ~pc ~fp ~clos =
  let o = m.depth * frame_size in
  if o = Array.length m.control then m.control <- Array.append m.control (Array.make o 0);
  let c = m.control in
  c.(o) <- code_id;
  c.(o + 1) <- clause;
  c.(o + 2) <- pc;
  c.(o + 3) <- fp;
  c.(o + 4) <- clos;
  m.depth <- m.depth + 1

(* The end of an activation: a Halt's step, what a host-boundary frame
   returns to, and the step past a clause's last pc. *)
let halt m =
  if m.depth <> m.base then error "halt with pending frames";
  m.acc

(* The caller {!apply_closure} makes: a host-boundary frame, which
   returns to a halt. *)
let host = { code_id = -1; clause_no = -1; pc = 0; next = halt }

(* Pop the top control frame into the registers.  Like every call path
   below, it returns the step to continue with. *)
let[@inline] do_return m =
  if m.depth <= m.base then error "return past base frame";
  m.depth <- m.depth - 1;
  let c = m.control and o = m.depth * frame_size in
  let code_id = c.(o) and clause = c.(o + 1) in
  m.sp <- m.fp;
  m.fp <- c.(o + 3);
  m.clos <- c.(o + 4);
  if code_id < 0 then halt else (Vec.Poly.get m.clauses code_id).(clause).steps.(c.(o + 2))

(* The value of open-coded [kind] on [a] and [x] ([a] = [x] for arity 1),
   or [no_word] where the primitive's generic path is needed: a non-fixnum
   or an overflow for the numeric ops, a non-pair for car/cdr.  For those
   two it returns the pair, which the caller reads after its safepoint.
   Tagged fixnum words order like the integers they carry. *)
let[@inline] op_value (kind : Instr.kind) a x =
  let fixnums = Word.is_fixnum a && Word.is_fixnum x in
  let exact n = if n < Word.fixnum_min || n > Word.fixnum_max then no_word else Word.of_fixnum n in
  match kind with
  | Instr.Add -> if fixnums then exact (Word.to_fixnum a + Word.to_fixnum x) else no_word
  | Instr.Sub -> if fixnums then exact (Word.to_fixnum a - Word.to_fixnum x) else no_word
  | Instr.Num_eq -> if fixnums then Word.of_bool (a = x) else no_word
  | Instr.Lt -> if fixnums then Word.of_bool (a < x) else no_word
  | Instr.Gt -> if fixnums then Word.of_bool (a > x) else no_word
  | Instr.Le -> if fixnums then Word.of_bool (a <= x) else no_word
  | Instr.Ge -> if fixnums then Word.of_bool (a >= x) else no_word
  | Instr.Eq -> Word.of_bool (Word.equal a x)
  | Instr.Car | Instr.Cdr -> if Word.is_pair_ptr x then x else no_word
  | Instr.Is_null -> Word.of_bool (Word.is_nil x)
  | Instr.Is_pair -> Word.of_bool (Word.is_pair_ptr x)
  | Instr.Not -> Word.of_bool (Word.is_false x)
  | Instr.Is_zero -> Word.of_bool (Word.equal x (Word.of_fixnum 0))

(* Extend the frame from its parameters ([sp] = [fp] + parameters) to
   [frame] slots, filled with void so the root scanner never sees a stale
   word. *)
let[@inline] reserve_frame m frame =
  let top = m.fp + frame in
  if top > m.sp then begin
    ensure_stack m top;
    for i = m.sp to top - 1 do
      m.stack.(i) <- Word.void
    done;
    m.sp <- top
  end

let call_code m site ~tail callee code_id n =
  let clauses = Vec.Poly.get m.clauses code_id in
  let clause_idx = select_clause clauses n 0 in
  if clause_idx < 0 then error "%s: no clause for %d arguments" (code m code_id).Instr.name n;
  let clause = clauses.(clause_idx) in
  if tail then begin
    (* Slide the arguments down onto the current frame. *)
    for j = 0 to n - 1 do
      m.stack.(m.fp + j) <- m.stack.(m.sp - n + j)
    done;
    m.sp <- m.fp + n
  end
  else begin
    push_frame m ~code_id:site.code_id ~clause:site.clause_no ~pc:site.pc ~fp:m.fp ~clos:m.clos;
    m.fp <- m.sp - n
  end;
  (* [select_clause] gave a rest clause at least its required arguments. *)
  if clause.shape.rest then build_rest m ~required:clause.shape.required ~n;
  reserve_frame m clause.shape.frame;
  m.clos <- callee;
  clause.steps.(0)

(* ------------------------------------------------------------------ *)
(* Continuations                                                       *)

(* Layout of a reified continuation (typed object, code_continuation):
   0 value-stack snapshot (heap vector of words)
   1 control snapshot (heap vector, one control frame per [frame_size]
     slots, fixnums but the closure)
   2 fp at capture
   3 resume code id   4 resume clause   5 resume pc
   6 closure at capture *)

let capture_continuation m site ~tail =
  let h = m.heap and c = m.control in
  (* Resume point.  Non-tail: just after the Call instruction of the
     current clause.  Tail: the current frame is about to be discarded, so
     the continuation resumes at the caller recorded in the top control
     frame — exactly what Return would do. *)
  let sp_snap, fp_snap, clos_snap, resume_code, resume_clause, resume_pc, skip_top =
    if not tail then (m.sp, m.fp, m.clos, site.code_id, site.clause_no, site.pc, 0)
    else begin
      if m.depth = 0 then error "call/cc: no caller to return to";
      let o = (m.depth - 1) * frame_size in
      (m.fp, c.(o + 3), c.(o + 4), c.(o), c.(o + 1), c.(o + 2), 1)
    end
  in
  if resume_code < 0 then error "call/cc: cannot capture across a host boundary";
  let depth = m.depth - skip_top in
  (* Host-boundary frames cannot be reinstated; reject at capture time so
     the error points at the call/cc, not a later throw. *)
  for i = 0 to depth - 1 do
    if c.(i * frame_size) < 0 then error "call/cc: cannot capture across a host boundary"
  done;
  let vstack = Obj.make_vector h ~len:sp_snap ~init:(Word.of_fixnum 0) in
  for i = 0 to sp_snap - 1 do
    Obj.vector_set h vstack i m.stack.(i)
  done;
  let control = Obj.make_vector h ~len:(depth * frame_size) ~init:(Word.of_fixnum 0) in
  for o = 0 to (depth * frame_size) - 1 do
    Obj.vector_set h control o (if o mod frame_size = 4 then c.(o) else Word.of_fixnum c.(o))
  done;
  let k = Obj.make_typed h ~code:Obj.code_continuation ~len:7 ~init:(Word.of_fixnum 0) () in
  Obj.set_field h k 0 vstack;
  Obj.set_field h k 1 control;
  Obj.set_field h k 2 (Word.of_fixnum fp_snap);
  Obj.set_field h k 3 (Word.of_fixnum resume_code);
  Obj.set_field h k 4 (Word.of_fixnum resume_clause);
  Obj.set_field h k 5 (Word.of_fixnum resume_pc);
  Obj.set_field h k 6 clos_snap;
  k

(* A continuation's resume point or saved frame, checked: code id, clause,
   pc, and frame plus depth at pc within [limit], the next frame's fp or the
   snapshot's sp (a primitive's nested activation can leave a gap).
   Returns the clause. *)
let check_resume m ~limit ~code_id ~clause ~pc ~fp =
  let bad what n = error "continuation: %s %d out of range" what n in
  if code_id < 0 || code_id >= Vec.Poly.length m.clauses then bad "code id" code_id;
  let clauses = Vec.Poly.get m.clauses code_id in
  if clause < 0 || clause >= Array.length clauses then bad "clause" clause;
  let c = clauses.(clause) in
  if pc < 0 || pc >= Array.length c.depths || c.depths.(pc) < 0 then bad "pc" pc;
  if fp < 0 || fp + c.shape.frame + c.depths.(pc) > limit then bad "fp" fp;
  c.build ();
  c

(* Install continuation [k] with value [v].  A continuation can come from
   a heap image, so everything is checked before the first register is
   overwritten: a malformed one is a Scheme error that leaves the machine
   as it was. *)
let reinstate_continuation m k v =
  let h = m.heap in
  let malformed () = error "continuation: malformed object" in
  let int w = if Word.is_fixnum w then Word.to_fixnum w else malformed () in
  let vector w = if Obj.is_vector h w then w else malformed () in
  if Obj.typed_len h k <> 7 then malformed ();
  let vstack = vector (Obj.field h k 0) and control = vector (Obj.field h k 1) in
  let sp = Obj.vector_length h vstack and nslots = Obj.vector_length h control in
  if nslots mod frame_size <> 0 then malformed ();
  let slot o = Obj.vector_ref h control o in
  let nframes = nslots / frame_size in
  let fp = int (Obj.field h k 2) and code_id = int (Obj.field h k 3) in
  for i = 0 to nframes - 1 do
    let o = i * frame_size in
    let limit = if i = nframes - 1 then fp else int (slot (o + frame_size + 3)) in
    ignore
      (check_resume m ~limit ~code_id:(int (slot o)) ~clause:(int (slot (o + 1)))
         ~pc:(int (slot (o + 2))) ~fp:(int (slot (o + 3))))
  done;
  let clause = int (Obj.field h k 4) and pc = int (Obj.field h k 5) in
  let step = (check_resume m ~limit:sp ~code_id ~clause ~pc ~fp).steps.(pc) in
  ensure_stack m sp;
  for i = 0 to sp - 1 do
    m.stack.(i) <- Obj.vector_ref h vstack i
  done;
  m.sp <- sp;
  m.fp <- fp;
  m.clos <- Obj.field h k 6;
  m.depth <- 0;
  for i = 0 to nframes - 1 do
    let o = i * frame_size in
    push_frame m ~code_id:(int (slot o)) ~clause:(int (slot (o + 1))) ~pc:(int (slot (o + 2)))
      ~fp:(int (slot (o + 3))) ~clos:(slot (o + 4))
  done;
  m.acc <- v;
  step

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

(* A call from [site]: a primitive's non-tail call continues at its
   step at once, a code's on its return. *)
let rec do_call m site ~tail n =
  (* Safepoint: everything live is rooted (stack, acc = callee, control). *)
  Runtime.safepoint m.heap;
  m.stats.Stats.vm_calls <- m.stats.Stats.vm_calls + 1;
  apply_word m site ~tail m.acc n

(* Apply [callee] to the [n] arguments on the stack top.  One header read
   classifies it; field 0 holds the code id, negative for a primitive. *)
and apply_word m site ~tail callee n =
  let h = m.heap in
  let kind = if Word.is_typed_ptr callee then Obj.typed_code h callee else -1 in
  if kind = Obj.code_continuation then begin
    (* Invoking a reified continuation: one value, then jump. *)
    if n <> 1 then error "continuation: expected 1 value, got %d" n;
    let v = m.stack.(m.sp - 1) in
    m.sp <- m.sp - 1;
    reinstate_continuation m callee v
  end
  else if kind <> Obj.code_closure then
    error "attempt to apply non-procedure: %s" (Printer.to_string h callee)
  else
    let id = closure_id m callee in
    if id < 0 then begin
      if -1 - id >= Vec.Poly.length m.prims then error "closure: primitive id %d out of range" id;
      call_prim m site ~tail (Vec.Poly.get m.prims (-1 - id)) n
    end
    else begin
      if id >= Vec.Poly.length m.clauses then error "closure: code id %d out of range" id;
      call_code m site ~tail callee id n
    end

and call_prim m site ~tail prim n =
  match prim.special with
  | Callcc ->
      if n <> 1 then error "call/cc: expected 1 argument";
      let f = m.stack.(m.sp - 1) in
      m.sp <- m.sp - 1;
      push m (capture_continuation m site ~tail);
      apply_word m site ~tail f 1
  | Apply ->
      (* apply: (apply proc arg ... lst): spread the final list. *)
      if n < 2 then error "apply: needs at least 2 arguments";
      let proc = m.stack.(m.sp - n) in
      let lst = m.stack.(m.sp - 1) in
      (* Shift the middle args down over proc's slot. *)
      for j = 0 to n - 3 do
        m.stack.(m.sp - n + j) <- m.stack.(m.sp - n + 1 + j)
      done;
      m.sp <- m.sp - 2;
      apply_word m site ~tail proc (spread_list m lst (n - 2))
  | Plain ->
      if n < prim.arity_min || (prim.arity_max >= 0 && n > prim.arity_max) then
        error "%s: wrong number of arguments (%d)" prim.pname n;
      m.stats.Stats.vm_prim_calls <- m.stats.Stats.vm_prim_calls + 1;
      (* The arguments stay rooted on the stack until the primitive returns. *)
      let base = m.sp - n in
      m.acc <- prim.fn m base n;
      m.sp <- base;
      if tail then do_return m else site.next

(* Global [cell]'s value, as Global_ref reads it. *)
let[@inline] global_value m cell =
  let w = Heap.read_cell m.heap cell in
  if Word.equal w Word.unbound then error "variable %s is not bound" (global_name m cell);
  w

(* An open-coded op's fast path on its operands in place (stack top and
   acc, or acc alone): [call_prim] of the op's primitive inlined, with the
   same safepoint, counters and pop, and car/cdr read their pair after the
   safepoint.  False, having done nothing, where the cell no longer holds
   the primitive or the operands need the generic path. *)
let[@inline] op_fast m (op : Instr.op) cell =
  let x = m.acc in
  let v =
    if Heap.read_cell m.heap cell <> m.op_prims.(op.index) then no_word
    else op_value op.kind (if op.arity = 2 then m.stack.(m.sp - 1) else x) x
  in
  v <> no_word
  && begin
       Runtime.safepoint m.heap;
       m.stats.Stats.vm_calls <- m.stats.Stats.vm_calls + 1;
       m.stats.Stats.vm_prim_calls <- m.stats.Stats.vm_prim_calls + 1;
       m.sp <- m.sp - (op.arity - 1);
       m.acc <-
         (match op.kind with
         | Instr.Car -> Obj.car m.heap m.acc
         | Instr.Cdr -> Obj.cdr m.heap m.acc
         | _ -> v);
       true
     end

(* Free slot [k] of the running closure: [Obj.field]'s checks, as a Scheme error. *)
let[@inline] free_slot m k =
  let n = if Word.is_typed_ptr m.clos then Obj.typed_len m.heap m.clos - 1 else 0 in
  if k < 0 || k >= n then error "closure: free slot %d not in [0, %d)" k n;
  Heap.load m.heap (Word.addr m.clos + 2 + k)

(* The address of box [w]'s contents, after the header test [Obj.box_ref]
   asserts, as a Scheme error. *)
let[@inline] box_addr m w =
  if not (Word.is_typed_ptr w && Obj.typed_code m.heap w = Obj.code_box) then
    error "not a box: %s" (Printer.to_string m.heap w);
  Word.addr w + 1

let[@inline] box_set m w v =
  let addr = box_addr m w in
  Heap.store m.heap addr v;
  Heap.note_mutation m.heap ~addr ~value:v

(* ------------------------------------------------------------------ *)
(* Steps                                                               *)

(* Fill [st] with a checked clause's steps, built from its last pc back.  Each does its
   pc's work and tail-calls the step to continue with: the next pc's,
   which it holds, a jump target's, read from the array when taken, or
   one a call path returns.  At the first pc of each common run below,
   the step does the whole run, in order, and continues past it (or at
   its branch); the run's other pcs keep their own steps, so a jump into
   a run, a resume pc and [depths] keep their meaning.  An op is preceded
   by [local slot] where [slot] >= 0 and by [push; imm w] where [imm]. *)
let steps st ~code_id ~clause_no (instrs : Instr.instr array) =
  let n = Array.length instrs in
  let at i = if i < n then instrs.(i) else Instr.Halt in
  let is_tail = function Instr.Tail_call _ -> true | _ -> false in
  let site pc = { code_id; clause_no; pc; next = st.(pc) } in
  let op_step pc ~slot ~imm ~w (op : Instr.op) cell ~tail =
    let ret = pc + 1 + Bool.to_int (slot >= 0) + (2 * Bool.to_int imm) in
    let target = match at ret with Instr.Branch_false t when not tail -> t | _ -> -1 in
    let after = st.(ret) and skip = if target < 0 then halt else st.(ret + 1) in
    let site = site ret in
    fun m ->
      if slot >= 0 then m.acc <- m.stack.(m.fp + slot);
      if imm then (push m m.acc; m.acc <- w);
      if op_fast m op cell then
        if tail then do_return m m
        else if target < 0 then after m
        else (if Word.is_false m.acc then st.(target) else skip) m
      else begin
        (* The generic call: the last operand pushed, the operator read
           from its cell as Global_ref does. *)
        push m m.acc;
        m.acc <- global_value m cell;
        (do_call m site ~tail op.arity) m
      end
  in
  for pc = n - 1 downto 0 do
    let next = st.(pc + 1) in
    st.(pc) <-
      (match (instrs.(pc), at (pc + 1), at (pc + 2), at (pc + 3)) with
      | Local_ref slot, Push, Imm w, Op { op; cell; tail } -> op_step pc ~slot ~imm:true ~w op cell ~tail
      | Push, Imm w, Op { op; cell; tail }, _ -> op_step pc ~slot:(-1) ~imm:true ~w op cell ~tail
      | Local_ref slot, Op { op; cell; tail }, _, _ -> op_step pc ~slot ~imm:false ~w:0 op cell ~tail
      | Op { op; cell; tail }, _, _, _ -> op_step pc ~slot:(-1) ~imm:false ~w:0 op cell ~tail
      | Local_ref slot, ((Call k | Tail_call k) as call), _, _ ->
          let site = site (pc + 2) and tail = is_tail call in
          fun m ->
            m.acc <- m.stack.(m.fp + slot);
            (do_call m site ~tail k) m
      | Local_ref k, Push, _, _ ->
          let after = st.(pc + 2) in
          fun m -> m.acc <- m.stack.(m.fp + k); push m m.acc; after m
      | Free_ref k, Push, _, _ ->
          let after = st.(pc + 2) in
          fun m -> m.acc <- free_slot m k; push m m.acc; after m
      | Free_ref k, Unbox, _, _ ->
          let after = st.(pc + 2) in
          fun m -> m.acc <- Heap.load m.heap (box_addr m (free_slot m k)); after m
      | Global_ref cell, ((Call k | Tail_call k) as call), _, _ ->
          let site = site (pc + 2) and tail = is_tail call in
          fun m ->
            m.acc <- global_value m cell;
            (do_call m site ~tail k) m
      | Push, Global_ref cell, ((Call k | Tail_call k) as call), _ ->
          let site = site (pc + 3) and tail = is_tail call in
          fun m ->
            push m m.acc;
            m.acc <- global_value m cell;
            (do_call m site ~tail k) m
      | ((Call k | Tail_call k) as call), _, _, _ ->
          let site = site (pc + 1) and tail = is_tail call in
          fun m -> (do_call m site ~tail k) m
      | Const k, _, _, _ -> fun m -> m.acc <- Vec.Int.get m.consts k; next m
      | Imm w, _, _, _ -> fun m -> m.acc <- w; next m
      | Local_ref k, _, _, _ -> fun m -> m.acc <- m.stack.(m.fp + k); next m
      | Local_set k, _, _, _ -> fun m -> m.stack.(m.fp + k) <- m.acc; next m
      | Local_clear { slot; count }, _, _, _ ->
          fun m -> Array.fill m.stack (m.fp + slot) count Word.void; next m
      | Local_pop { slot; count }, _, _, _ ->
          fun m ->
            (* The popped words sit above the frame: no overlap. *)
            let sp = m.sp - count and dst = m.fp + slot in
            for j = 0 to count - 1 do
              m.stack.(dst + j) <- m.stack.(sp + j)
            done;
            m.sp <- sp;
            next m
      | Free_ref k, _, _, _ -> fun m -> m.acc <- free_slot m k; next m
      | Unbox, _, _, _ -> fun m -> m.acc <- Heap.load m.heap (box_addr m m.acc); next m
      | Local_set_box k, _, _, _ ->
          fun m -> box_set m m.stack.(m.fp + k) m.acc; m.acc <- Word.void; next m
      | Free_set_box k, _, _, _ -> fun m -> box_set m (free_slot m k) m.acc; m.acc <- Word.void; next m
      | Global_ref cell, _, _, _ -> fun m -> m.acc <- global_value m cell; next m
      | Global_set cell, _, _, _ ->
          fun m ->
            if Word.equal (Heap.read_cell m.heap cell) Word.unbound then
              error "cannot set! unbound variable %s" (global_name m cell);
            Heap.write_cell m.heap cell m.acc;
            m.acc <- Word.void;
            next m
      | Global_define cell, _, _, _ -> fun m -> Heap.write_cell m.heap cell m.acc; next m
      | Push, _, _, _ -> fun m -> push m m.acc; next m
      | Box_local k, _, _, _ -> fun m -> m.stack.(m.fp + k) <- Obj.make_box m.heap m.stack.(m.fp + k); next m
      | Make_closure { code_id; nfree }, _, _, _ ->
          fun m ->
            let c = make_closure_obj m ~code_id ~nfree in
            for j = 0 to nfree - 1 do
              Obj.set_field m.heap c (1 + j) m.stack.(m.sp - nfree + j)
            done;
            m.sp <- m.sp - nfree;
            m.acc <- c;
            next m
      | Branch_false t, _, _, _ -> fun m -> (if Word.is_false m.acc then st.(t) else next) m
      | Jump t, _, _, _ -> fun m -> st.(t) m
      | Loop t, _, _, _ ->
          (* Everything live is in the frame and acc: a loop that allocates
             only closures and boxes still serves collect requests. *)
          fun m -> Runtime.safepoint m.heap; st.(t) m
      | Return, _, _, _ -> fun m -> do_return m m
      | Halt, _, _, _ -> halt)
  done

(* ------------------------------------------------------------------ *)
(* Code                                                                *)

(* The compiler, run_code and image restore all add code here, where it
   is checked once against the tables as they stand. *)
let add_code m (code : Instr.code) =
  let ncells = m.heap.Heap.global_cells_len and ncodes = Vec.Poly.length m.codes in
  let depths = Instr.check ~nconsts:(Vec.Int.length m.consts) ~ncells ~ncodes code in
  Vec.Poly.push m.codes code;
  let code_id = Vec.Poly.length m.codes - 1 in
  (* Most clauses a machine holds never run, so each is built when first
     entered: at pc 0 by a call or run_code, or by a continuation's
     check.  Every other entry is from a frame or a step it built. *)
  let clause i (c : Instr.clause) =
    let st = Array.make (Array.length c.instrs + 1) halt and built = ref false in
    let build () = if not !built then (built := true; steps st ~code_id ~clause_no:i c.instrs) in
    st.(0) <- (fun m -> build (); st.(0) m);
    { shape = c; steps = st; depths = depths.(i); build }
  in
  Vec.Poly.push m.clauses (Array.of_list (List.mapi clause code.clauses));
  code_id

let linker m : Compile.linker =
  {
    Compile.global_cell = global_cell m;
    add_const = add_const m;
    add_code = add_code m;
  }

(* The compiled-code table and the constants table live on the OCaml
   side; Scheme_image carries them through a heap image as extra
   sections.  Everything else a restored machine needs is either in the
   heap (globals, symbols' global-cell links) or reinstalled by the
   caller (primitives). *)

let image_codes m = Array.init (Vec.Poly.length m.codes) (Vec.Poly.get m.codes)
let image_consts m = Array.init (Vec.Int.length m.consts) (Vec.Int.get m.consts)

let restore_image_state m ~codes ~consts ~symbols =
  Vec.Poly.clear m.codes;
  Vec.Poly.clear m.clauses;
  Code_ids.reset m.top_ids;
  (* Constants first: the code check bounds constant indices by them. *)
  Vec.Int.clear m.consts;
  Array.iter (Vec.Int.push m.consts) consts;
  Array.iter (fun c -> ignore (add_code m c)) codes;
  Symtab.restore m.symtab symbols;
  (* Global cells keep their indices through an image, so the reverse
     name map (for error messages) rebuilds from the symbol section. *)
  List.iter
    (fun (name, w) ->
      if Obj.is_symbol m.heap w then begin
        let idx = Obj.symbol_global m.heap w in
        if idx >= 0 then Hashtbl.replace m.global_names idx name
      end)
    symbols

(* Run [step] as an activation above the current control frames, to its
   halt at this depth; the enclosing activation's base is back on any
   exit. *)
let enter m step =
  let base = m.base in
  m.base <- m.depth;
  match step m with
  | v -> m.base <- base; v
  | exception e -> m.base <- base; raise e

(* ------------------------------------------------------------------ *)
(* Re-entrant application (for collect-request handlers etc.)          *)

(* Call [clos_w] with [args] from OCaml: saves the register file on the
   (rooted) value stack, runs a nested activation, restores. *)
let apply_closure m clos_w args =
  (* Root everything we must restore. *)
  push m m.acc;
  push m m.clos;
  let saved_fp = m.fp and saved_sp_after = m.sp in
  List.iter (push m) args;
  m.acc <- clos_w;
  (* The synthetic caller: its call pushes a host-boundary frame, which
     the callee's return pops to a halt, ending the activation. *)
  let n = List.length args in
  let result = enter m (fun m -> (do_call m host ~tail:false n) m) in
  m.fp <- saved_fp;
  m.sp <- saved_sp_after;
  m.clos <- m.stack.(m.sp - 1);
  m.acc <- m.stack.(m.sp - 2);
  m.sp <- m.sp - 2;
  result

(* Scheme-level error handling: run [thunk] (a closure, no arguments); if
   a Scheme error escapes, restore the register file to its state at entry
   and apply [handler] to the error message (a heap string).  This is what
   lets clean-up code signal errors without killing unrelated work -- one
   of the paper's design questions for finalization. *)
let call_with_error_handler m ~thunk ~handler =
  (* Root the handler across the thunk's execution. *)
  let handler_cell = Heap.new_cell m.heap handler in
  let saved_sp = m.sp and saved_fp = m.fp in
  let saved_depth = m.depth in
  Fun.protect
    ~finally:(fun () -> Heap.free_cell m.heap handler_cell)
    (fun () ->
      match apply_closure m thunk [] with
      | v -> v
      | exception Error msg ->
          (* Unwind to the state at entry. *)
          m.sp <- saved_sp;
          m.fp <- saved_fp;
          m.depth <- min m.depth saved_depth;
          m.acc <- Word.void;
          m.clos <- Word.nil;
          let msg_w = Obj.string_of_ocaml m.heap msg in
          apply_closure m (Heap.read_cell m.heap handler_cell) [ msg_w ])

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let run_code m (code : Instr.code) =
  match code.Instr.clauses with
  | [ _ ] ->
      (* Register the top-level block, once, so continuations captured
         inside it can name their resume point. *)
      let id =
        match Code_ids.find_opt m.top_ids code with
        | Some id -> id
        | None ->
            let id = add_code m code in
            Code_ids.add m.top_ids code id;
            id
      in
      let clause = (Vec.Poly.get m.clauses id).(0) and saved_fp = m.fp in
      m.fp <- m.sp;
      reserve_frame m clause.shape.frame;
      let result = enter m clause.steps.(0) in
      m.sp <- m.fp;
      m.fp <- saved_fp;
      result
  | _ -> error "bad top-level code"

(** Discard any in-flight activation state (after an error escaped the
    interpreter loop, e.g. in a REPL). *)
let reset m =
  m.sp <- 0;
  m.fp <- 0;
  m.acc <- Word.void;
  m.clos <- Word.nil;
  m.depth <- 0;
  m.base <- 0

(** Evaluate one datum; returns the resulting heap word (valid until the
    next collection). *)
let eval_datum m d =
  let codes = Compile.compile_toplevel (linker m) d in
  List.fold_left (fun _ code -> run_code m code) Word.void codes

(** Evaluate every form in [src], returning the last result. *)
let eval_string m src =
  let data = Reader.read_all src in
  List.fold_left (fun _ d -> eval_datum m d) Word.void data
