(** Ports: buffered character I/O objects over the virtual filesystem.

    A port is a typed heap object encapsulating a file descriptor, a buffer,
    and status flags — the paper's example of an object whose reclamation
    must trigger clean-up (flush unwritten data, close the descriptor).
    Nothing here closes ports automatically; that is {!Guarded_port}'s job. *)

open Gbc_runtime

let buffer_size = 64

(* Field layout. *)
let f_fd = 0
let f_flags = 1
let f_buffer = 2
let f_buf_used = 3
let f_name = 4
let num_fields = 5

let flag_input = 1
let flag_output = 2
let flag_closed = 4

exception Closed_port

let is_port h w = Obj.has_code h w Obj.code_port

let flags h p = Word.to_fixnum (Obj.field h p f_flags)
let set_flags h p f = Obj.set_field h p f_flags (Word.of_fixnum f)
let fd h p = Word.to_fixnum (Obj.field h p f_fd)
let is_input h p = flags h p land flag_input <> 0
let is_output h p = flags h p land flag_output <> 0
let is_closed h p = flags h p land flag_closed <> 0
let name h p = Obj.string_to_ocaml h (Obj.field h p f_name)
let buffered h p = Word.to_fixnum (Obj.field h p f_buf_used)

let make (ctx : Ctx.t) ~file_name ~mode =
  let h = ctx.heap in
  let vfs_mode, flag =
    match mode with
    | `Input -> (Gbc_vfs.Vfs.Read, flag_input)
    | `Output -> (Gbc_vfs.Vfs.Write, flag_output)
  in
  let fd = Gbc_vfs.Vfs.openfile ctx.vfs file_name vfs_mode in
  let p = Obj.make_typed h ~code:Obj.code_port ~len:num_fields ~init:Word.nil () in
  Obj.set_field h p f_fd (Word.of_fixnum fd);
  Obj.set_field h p f_flags (Word.of_fixnum flag);
  Obj.set_field h p f_buffer (Obj.make_string h ~len:buffer_size ~fill:' ');
  Obj.set_field h p f_buf_used (Word.of_fixnum 0);
  Obj.set_field h p f_name (Obj.string_of_ocaml h file_name);
  p

let open_input ctx file_name = make ctx ~file_name ~mode:`Input
let open_output ctx file_name = make ctx ~file_name ~mode:`Output

let check_open h p = if is_closed h p then raise Closed_port

(** Flush buffered output to the backing file.  A no-op on closed ports
    (their buffer was flushed by [close]), so clean-up code may flush
    unconditionally, as the paper's [close-dropped-ports] does. *)
let flush (ctx : Ctx.t) p =
  let h = ctx.heap in
  if is_output h p && not (is_closed h p) then begin
    let used = buffered h p in
    if used > 0 then begin
      let buf = Obj.field h p f_buffer in
      let data = String.init used (fun i -> Obj.string_ref h buf i) in
      Gbc_vfs.Vfs.write ctx.vfs (fd h p) data;
      Obj.set_field h p f_buf_used (Word.of_fixnum 0)
    end
  end

let write_char (ctx : Ctx.t) p c =
  let h = ctx.heap in
  check_open h p;
  if not (is_output h p) then invalid_arg "Port.write_char: not an output port";
  let used = buffered h p in
  Obj.string_set h (Obj.field h p f_buffer) used c;
  Obj.set_field h p f_buf_used (Word.of_fixnum (used + 1));
  if used + 1 >= buffer_size then flush ctx p

let write_string ctx p s = String.iter (write_char ctx p) s

let read_char (ctx : Ctx.t) p =
  let h = ctx.heap in
  check_open h p;
  if not (is_input h p) then invalid_arg "Port.read_char: not an input port";
  Gbc_vfs.Vfs.read_char ctx.vfs (fd h p)

let peek_char (ctx : Ctx.t) p =
  let h = ctx.heap in
  check_open h p;
  if not (is_input h p) then invalid_arg "Port.peek_char: not an input port";
  Gbc_vfs.Vfs.peek_char ctx.vfs (fd h p)

(** Unconsumed input, without consuming it (used by [read]). *)
let remaining_input (ctx : Ctx.t) p =
  let h = ctx.heap in
  check_open h p;
  if not (is_input h p) then invalid_arg "Port.remaining_input: not an input port";
  Gbc_vfs.Vfs.remaining ctx.vfs (fd h p)

let advance_input (ctx : Ctx.t) p n =
  let h = ctx.heap in
  check_open h p;
  Gbc_vfs.Vfs.advance ctx.vfs (fd h p) n

let close (ctx : Ctx.t) p =
  let h = ctx.heap in
  if not (is_closed h p) then begin
    if is_output h p then flush ctx p;
    Gbc_vfs.Vfs.close ctx.vfs (fd h p);
    set_flags h p (flags h p lor flag_closed)
  end
