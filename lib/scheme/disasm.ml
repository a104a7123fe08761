(** Bytecode disassembler: renders compiled code objects for inspection,
    used by the [disassemble] primitive and the compiler tests. *)

let pp_clause ppf (c : Instr.clause) =
  Format.fprintf ppf "  clause: %d arg%s%s, frame %d@." c.Instr.required
    (if c.Instr.required = 1 then "" else "s")
    (if c.Instr.rest then " + rest" else "")
    c.Instr.frame;
  Array.iteri
    (fun i instr -> Format.fprintf ppf "    %3d  %a@." i Instr.pp_instr instr)
    c.Instr.instrs

let pp_code ppf (code : Instr.code) =
  Format.fprintf ppf "%s:@." code.Instr.name;
  List.iter (pp_clause ppf) code.Instr.clauses

let code_to_string code = Format.asprintf "%a" pp_code code

(** Disassemble a closure word of machine [m]. *)
let closure m w =
  let h = Machine.heap m in
  if not (Machine.is_procedure m w) then
    Machine.error "disassemble: expected a procedure";
  let code_id = Gbc_runtime.Word.to_fixnum (Gbc_runtime.Obj.field h w 0) in
  if code_id < 0 then Printf.sprintf "#<primitive %d>\n" (-1 - code_id)
  else code_to_string (Machine.code m code_id)
