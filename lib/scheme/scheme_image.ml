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
   cells by index and this module restores both tables in order.  The
   codec is derived from [Instr.describe].  It checks only what it needs
   to build an instruction; every code then goes through
   [Machine.add_code]'s check, so crafted code fails with [Image.Error]
   at load, not with an OCaml exception (or a silently wrong global) when
   it runs. *)

module Image = Gbc_image.Image

let codes_section = "scheme/codes"
let consts_section = "scheme/consts"

let corrupt fmt =
  Format.kasprintf (fun s -> raise (Image.Error ("gbc-image: " ^ s))) fmt

(* --- bytecode codec -------------------------------------------------- *)

(* Per clause: u32 required count, u8 rest flag, u32 let slots (the
   frame past the parameters), u32 instruction count.  Per instruction:
   its byte, then one i64 per operand integer ([Instr.operand_ints]):
   Imm's raw word needs the full width. *)

let encode_instr b i =
  let byte, _, operands = Instr.describe i in
  Image.u8 b byte;
  List.iter (fun o -> List.iter (Image.i64 b) (Instr.operand_ints o)) operands

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

(* The inverse of [encode_instr], checking only the opcode and the
   open-coded op's index. *)
let decode_instr r : Instr.instr =
  let n () = Image.ri64 r in
  match Image.ru8 r with
  | 0 -> Instr.Const (n ())
  | 1 -> Instr.Imm (n ())
  | 2 -> Instr.Local_ref (n ())
  | 3 -> Instr.Free_ref (n ())
  | 4 -> Instr.Unbox
  | 5 -> Instr.Local_set_box (n ())
  | 6 -> Instr.Free_set_box (n ())
  | 7 -> Instr.Global_ref (n ())
  | 8 -> Instr.Global_set (n ())
  | 9 -> Instr.Global_define (n ())
  | 10 -> Instr.Push
  | 11 -> Instr.Box_local (n ())
  | 12 -> let code_id = n () in Instr.Make_closure { code_id; nfree = n () }
  | 13 -> Instr.Branch_false (n ())
  | 14 -> Instr.Jump (n ())
  | 15 -> Instr.Call (n ())
  | 16 -> Instr.Tail_call (n ())
  | 17 -> Instr.Return
  | 18 -> Instr.Halt
  | 19 ->
      let cell = n () in
      let o = n () in
      if o < 0 || o >= 2 * Array.length Instr.ops then corrupt "scheme/codes: unknown op %d" o;
      Instr.Op { op = Instr.ops.(o / 2); cell; tail = o land 1 = 1 }
  | 20 -> Instr.Local_set (n ())
  | 21 -> let slot = n () in Instr.Local_clear { slot; count = n () }
  | 22 -> let slot = n () in Instr.Local_pop { slot; count = n () }
  | 23 -> Instr.Loop (n ())
  | op -> corrupt "scheme/codes: unknown opcode %d" op

let decode_codes (s : string) : Instr.code array =
  (* The CRC catches corruption; these checks guard against a section not
     written by this codec.  Each entry takes a byte at least, so a count
     is bounded by what is left before anything is allocated for it. *)
  let r =
    Image.reader ~truncated:"scheme/codes section is truncated" s ~pos:0
      ~limit:(String.length s)
  in
  let count () =
    let k = Image.ru32 r in
    if k > Image.remaining r then corrupt "scheme/codes section is truncated";
    k
  in
  let codes =
    Array.init (count ()) (fun _ ->
        let name = Image.rstr r in
        let clauses =
          List.init (count ()) (fun _ ->
              let required = Image.ru32 r in
              let rest = Image.ru8 r <> 0 in
              let frame = required + Bool.to_int rest + Image.ru32 r in
              let instrs = Array.init (count ()) (fun _ -> decode_instr r) in
              { Instr.required; rest; frame; instrs })
        in
        { Instr.name; clauses })
  in
  if Image.remaining r > 0 then
    corrupt "scheme/codes: %d trailing bytes" (Image.remaining r);
  codes

(* --- save ------------------------------------------------------------ *)

let sections m =
  let symbols = Gbc_runtime.Symtab.entries (Machine.symtab m) in
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
  let codes = decode_codes (section codes_section).Image.xbytes in
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
