(** Handles: rooted references to heap values for OCaml-side code.

    A raw {!Word.t} is only valid until the next collection; a handle wraps
    a global root cell, so the word it yields is always current.  Handles
    have explicit lifetimes ([free], or the scoped [with_handle]); freeing
    is idempotent.  Reading a freed handle is a programming error and
    raises. *)

type t = { heap : Heap.t; cell : int; mutable freed : bool }

let create heap w = { heap; cell = Heap.new_cell heap w; freed = false }

let get t =
  if t.freed then invalid_arg "Handle.get: handle already freed";
  Heap.read_cell t.heap t.cell

let set t w =
  if t.freed then invalid_arg "Handle.set: handle already freed";
  Heap.write_cell t.heap t.cell w

let free t =
  if not t.freed then begin
    t.freed <- true;
    Heap.free_cell t.heap t.cell
  end

let with_handle heap w f =
  let t = create heap w in
  Fun.protect ~finally:(fun () -> free t) (fun () -> f t)
