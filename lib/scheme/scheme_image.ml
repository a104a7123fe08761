(* Saving and restoring a whole Scheme system as a [gbc-image/1] file.

   The heap image carries the heap itself (globals, symbols, guardians,
   everything the runtime serializes); this module layers the machine's
   OCaml-side state on top as named extra sections:

     "scheme/consts"  the constants table, as relocated heap words
     "scheme/codes"   the compiled-code table, as flat bytecode

   and the image's symbol section is the interning table, so symbols
   keep their identity across a restore.  A restored system needs its
   primitives reinstalled (OCaml closures do not serialize); the
   [install] callback — normally [Primitives.install] — does that.
   Installation order is fixed, so the prim ids baked into primitive
   closures in the restored heap resolve against the reinstalled table,
   and the guarded [Machine.define_prim] allocates nothing for an
   already-bound name, which keeps save -> load -> save byte-identical.

   Instruction operands (constant indices, global-cell indices, code
   ids) are all index-stable across an image: the image preserves global
   cells by index and this module restores both tables in order.  A
   restore checks every operand against those tables, so a crafted image
   fails with [Image.Error] at load, not with an OCaml exception (or a
   silently wrong global) when the code runs. *)

open Gbc_runtime
module Image = Gbc_image.Image

let codes_section = "scheme/codes"
let consts_section = "scheme/consts"

let corrupt fmt =
  Format.kasprintf (fun s -> raise (Image.Error ("gbc-image: " ^ s))) fmt

(* --- bytecode codec -------------------------------------------------- *)

(* Per clause: u32 required count, u8 rest flag, u32 let slots (the
   frame past the parameters), u32 instruction count.  Per instruction:
   u8 opcode, then one i64 per operand (two for Make_closure, Op,
   Local_clear and Local_pop).  Local-slot operands are bounded by the
   frame in [Machine.add_code], which restore goes through.  Imm carries
   a raw word, which for immediates needs the full width.  Op's operands
   are its global cell and [op.index * 2 + tail], the index into
   Instr.ops.  The numbering below is part of the scheme/codes section
   format; never reorder it, only append. *)

let opcode : Instr.instr -> int = function
  | Instr.Const _ -> 0
  | Instr.Imm _ -> 1
  | Instr.Local_ref _ -> 2
  | Instr.Free_ref _ -> 3
  | Instr.Unbox -> 4
  | Instr.Local_set_box _ -> 5
  | Instr.Free_set_box _ -> 6
  | Instr.Global_ref _ -> 7
  | Instr.Global_set _ -> 8
  | Instr.Global_define _ -> 9
  | Instr.Push -> 10
  | Instr.Box_local _ -> 11
  | Instr.Make_closure _ -> 12
  | Instr.Branch_false _ -> 13
  | Instr.Jump _ -> 14
  | Instr.Call _ -> 15
  | Instr.Tail_call _ -> 16
  | Instr.Return -> 17
  | Instr.Halt -> 18
  | Instr.Op _ -> 19
  | Instr.Local_set _ -> 20
  | Instr.Local_clear _ -> 21
  | Instr.Local_pop _ -> 22
  | Instr.Loop _ -> 23

let encode_instr b i =
  Image.u8 b (opcode i);
  match i with
  | Instr.Const n | Instr.Imm n | Instr.Local_ref n | Instr.Free_ref n
  | Instr.Local_set_box n | Instr.Free_set_box n | Instr.Global_ref n
  | Instr.Global_set n | Instr.Global_define n | Instr.Box_local n
  | Instr.Branch_false n | Instr.Jump n | Instr.Call n | Instr.Tail_call n
  | Instr.Local_set n | Instr.Loop n ->
      Image.i64 b n
  | Instr.Make_closure { code_id; nfree } ->
      Image.i64 b code_id;
      Image.i64 b nfree
  | Instr.Local_clear { slot; count } | Instr.Local_pop { slot; count } ->
      Image.i64 b slot;
      Image.i64 b count
  | Instr.Op { op; cell; tail } ->
      Image.i64 b cell;
      Image.i64 b ((op.Instr.index * 2) + Bool.to_int tail)
  | Instr.Unbox | Instr.Push | Instr.Return | Instr.Halt -> ()

let encode_codes (codes : Instr.code array) : string =
  let b = Buffer.create 4096 in
  Image.u32 b (Array.length codes);
  Array.iter
    (fun (c : Instr.code) ->
      Image.str b c.Instr.name;
      Image.u32 b (List.length c.Instr.clauses);
      List.iter
        (fun (cl : Instr.clause) ->
          Image.u32 b cl.Instr.required;
          Image.u8 b (if cl.Instr.rest then 1 else 0);
          Image.u32 b (cl.Instr.frame - cl.Instr.required - Bool.to_int cl.Instr.rest);
          Image.u32 b (Array.length cl.Instr.instrs);
          Array.iter (encode_instr b) cl.Instr.instrs)
        c.Instr.clauses)
    codes;
  Buffer.contents b

(* The tables an instruction's operands index into. *)
type bounds = { ncells : int; nconsts : int; ncodes : int; ninstrs : int }

(* An operand that indexes a table of [bound] entries. *)
let operand r what bound =
  let n = Image.ri64 r in
  if n < 0 || n >= bound then corrupt "scheme/codes: %s %d not in [0, %d)" what n bound;
  n

let decode_instr r (b : bounds) : Instr.instr =
  match Image.ru8 r with
  | 0 -> Instr.Const (operand r "constant index" b.nconsts)
  | 1 -> Instr.Imm (Image.ri64 r)
  | 2 -> Instr.Local_ref (Image.ri64 r)
  | 3 -> Instr.Free_ref (Image.ri64 r)
  | 4 -> Instr.Unbox
  | 5 -> Instr.Local_set_box (Image.ri64 r)
  | 6 -> Instr.Free_set_box (Image.ri64 r)
  | 7 -> Instr.Global_ref (operand r "global cell" b.ncells)
  | 8 -> Instr.Global_set (operand r "global cell" b.ncells)
  | 9 -> Instr.Global_define (operand r "global cell" b.ncells)
  | 10 -> Instr.Push
  | 11 -> Instr.Box_local (Image.ri64 r)
  | 12 ->
      let code_id = operand r "code id" b.ncodes in
      let nfree = operand r "free-variable count" max_int in
      Instr.Make_closure { code_id; nfree }
  | 13 -> Instr.Branch_false (operand r "jump target" b.ninstrs)
  | 14 -> Instr.Jump (operand r "jump target" b.ninstrs)
  | 15 -> Instr.Call (operand r "argument count" max_int)
  | 16 -> Instr.Tail_call (operand r "argument count" max_int)
  | 17 -> Instr.Return
  | 18 -> Instr.Halt
  | 19 ->
      let cell = operand r "global cell" b.ncells in
      let o = operand r "open-coded op" (2 * Array.length Instr.ops) in
      Instr.Op { op = Instr.ops.(o / 2); cell; tail = o land 1 = 1 }
  | 20 -> Instr.Local_set (Image.ri64 r)
  | 21 ->
      let slot = Image.ri64 r in
      Instr.Local_clear { slot; count = Image.ri64 r }
  | 22 ->
      let slot = Image.ri64 r in
      Instr.Local_pop { slot; count = Image.ri64 r }
  | 23 -> Instr.Loop (operand r "jump target" b.ninstrs)
  | op -> corrupt "scheme/codes: unknown opcode %d" op

let decode_codes ~ncells ~nconsts (s : string) : Instr.code array =
  (* The section sits inside the image's CRC, so corruption is caught
     before we get here; the bounds checks guard against a section
     written by something that is not this codec. *)
  let r =
    Image.reader ~truncated:"scheme/codes section is truncated" s ~pos:0
      ~limit:(String.length s)
  in
  let ncodes = Image.ru32 r in
  let codes =
    Array.init ncodes (fun _ -> { Instr.name = ""; clauses = [] })
  in
  for ci = 0 to ncodes - 1 do
    let name = Image.rstr r in
    let nclauses = Image.ru32 r in
    let clauses = ref [] in
    for _ = 1 to nclauses do
      let required = Image.ru32 r in
      let rest = Image.ru8 r <> 0 in
      let slots = Image.ru32 r in
      let ninstrs = Image.ru32 r in
      (* The compiler spends at least one instruction per let slot, so a
         crafted count cannot make a call reserve a vast frame. *)
      if slots > ninstrs then corrupt "scheme/codes: %d let slots for %d instructions" slots ninstrs;
      let frame = required + Bool.to_int rest + slots in
      let bounds = { ncells; nconsts; ncodes; ninstrs } in
      let instrs = Array.make ninstrs Instr.Halt in
      for i = 0 to ninstrs - 1 do
        instrs.(i) <- decode_instr r bounds
      done;
      clauses := { Instr.required; rest; frame; instrs } :: !clauses
    done;
    codes.(ci) <- { Instr.name; clauses = List.rev !clauses }
  done;
  if Image.remaining r > 0 then
    corrupt "scheme/codes: %d trailing bytes" (Image.remaining r);
  codes

(* --- save ------------------------------------------------------------ *)

let sections m =
  let symbols = Symtab.entries (Machine.symtab m) in
  let extras =
    [
      (consts_section, { Image.xwords = Machine.image_consts m; xbytes = "" });
      ( codes_section,
        { Image.xwords = [||]; xbytes = encode_codes (Machine.image_codes m) }
      );
    ]
  in
  (symbols, extras)

let save_string m =
  let symbols, extras = sections m in
  Image.save_string ~symbols ~extras (Machine.heap m)

let save m path =
  let symbols, extras = sections m in
  Image.save_image ~symbols ~extras (Machine.heap m) path

(* --- load ------------------------------------------------------------ *)

let restore ~install (l : Image.loaded) =
  let section name =
    match List.assoc_opt name l.Image.extras with
    | Some x -> x
    | None -> corrupt "not a Scheme system image (missing %s section)" name
  in
  let consts = (section consts_section).Image.xwords in
  let codes =
    decode_codes ~ncells:l.Image.heap.Heap.global_cells_len ~nconsts:(Array.length consts)
      (section codes_section).Image.xbytes
  in
  let ctx = Gbc.Ctx.of_heap l.Image.heap in
  let m = Machine.create ~ctx () in
  (try Machine.restore_image_state m ~codes ~consts ~symbols:l.Image.symbols
   with Machine.Error msg -> corrupt "scheme/codes: %s" msg);
  (* Primitives are OCaml closures: reinstall.  The prelude is NOT
     re-evaluated — its definitions are global bindings living in the
     restored heap. *)
  install m;
  m

let load ?config ~install path = restore ~install (Image.load_image ?config path)

let load_string ?config ~install s =
  restore ~install (Image.load_string ?config s)
