(** An in-memory filesystem with a bounded file-descriptor table.

    The paper's motivating example is ports: "a port may not be closed
    explicitly by a user program before the last reference to it is dropped.
    This can tie up system resources and may result in data associated with
    output ports remaining unwritten until the system exits."  To reproduce
    that experiment deterministically we substitute the operating system
    with this small virtual filesystem: it enforces a descriptor limit,
    counts every open/close, and can report exactly how many descriptors
    were leaked and how many buffered bytes were never flushed. *)

exception Descriptor_exhausted
exception Bad_descriptor of int
exception No_such_file of string

type mode = Read | Write | Append

type file = {
  file_name : string;
  mutable content : Buffer.t;
}

type descriptor = {
  fd : int;
  file : file;
  mode : mode;
  mutable pos : int;  (** read position (input descriptors) *)
  mutable open_ : bool;
}

type t = {
  files : (string, file) Hashtbl.t;
  mutable table : descriptor option array;
  fd_limit : int;
  mutable open_count : int;
  mutable max_open : int;  (** high-water mark *)
  mutable total_opens : int;
  mutable total_closes : int;
  mutable bytes_written : int;
}

let create ?(fd_limit = 64) () =
  {
    files = Hashtbl.create 16;
    table = Array.make (min fd_limit 64) None;
    fd_limit;
    open_count = 0;
    max_open = 0;
    total_opens = 0;
    total_closes = 0;
    bytes_written = 0;
  }

let file_exists t name = Hashtbl.mem t.files name

let find_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None -> raise (No_such_file name)

let get_or_create_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None ->
      let f = { file_name = name; content = Buffer.create 64 } in
      Hashtbl.add t.files name f;
      f

(** Whole contents of [name] as a string (test/verification helper). *)
let read_file t name = Buffer.contents (find_file t name).content

let write_file t name data =
  let f = get_or_create_file t name in
  Buffer.clear f.content;
  Buffer.add_string f.content data

let remove_file t name = Hashtbl.remove t.files name

(* ------------------------------------------------------------------ *)
(* Descriptors                                                         *)

let free_slot t =
  let n = Array.length t.table in
  let rec scan i = if i >= n then None else if t.table.(i) = None then Some i else scan (i + 1) in
  match scan 0 with
  | Some i -> Some i
  | None ->
      if n >= t.fd_limit then None
      else begin
        let table = Array.make (min t.fd_limit (2 * n)) None in
        Array.blit t.table 0 table 0 n;
        t.table <- table;
        Some n
      end

let openfile t name mode =
  if t.open_count >= t.fd_limit then raise Descriptor_exhausted;
  match free_slot t with
  | None -> raise Descriptor_exhausted
  | Some fd ->
      let file =
        match mode with
        | Read -> find_file t name
        | Write ->
            let f = get_or_create_file t name in
            Buffer.clear f.content;
            f
        | Append -> get_or_create_file t name
      in
      let d = { fd; file; mode; pos = 0; open_ = true } in
      t.table.(fd) <- Some d;
      t.open_count <- t.open_count + 1;
      t.total_opens <- t.total_opens + 1;
      if t.open_count > t.max_open then t.max_open <- t.open_count;
      fd

let descriptor t fd =
  if fd < 0 || fd >= Array.length t.table then raise (Bad_descriptor fd);
  match t.table.(fd) with
  | Some d when d.open_ -> d
  | _ -> raise (Bad_descriptor fd)

let close t fd =
  let d = descriptor t fd in
  d.open_ <- false;
  t.table.(fd) <- None;
  t.open_count <- t.open_count - 1;
  t.total_closes <- t.total_closes + 1

let is_open t fd =
  fd >= 0
  && fd < Array.length t.table
  && match t.table.(fd) with Some d -> d.open_ | None -> false

let write t fd s =
  let d = descriptor t fd in
  if d.mode = Read then raise (Bad_descriptor fd);
  Buffer.add_string d.file.content s;
  t.bytes_written <- t.bytes_written + String.length s

let read_char t fd =
  let d = descriptor t fd in
  if d.mode <> Read then raise (Bad_descriptor fd);
  let contents = Buffer.contents d.file.content in
  if d.pos >= String.length contents then None
  else begin
    let c = contents.[d.pos] in
    d.pos <- d.pos + 1;
    Some c
  end

let peek_char t fd =
  let d = descriptor t fd in
  if d.mode <> Read then raise (Bad_descriptor fd);
  let contents = Buffer.contents d.file.content in
  if d.pos >= String.length contents then None else Some contents.[d.pos]

(** Unconsumed remainder of an input descriptor's file. *)
let remaining t fd =
  let d = descriptor t fd in
  if d.mode <> Read then raise (Bad_descriptor fd);
  let contents = Buffer.contents d.file.content in
  String.sub contents d.pos (String.length contents - d.pos)

(** Advance an input descriptor by [n] characters (used by [read]). *)
let advance t fd n =
  let d = descriptor t fd in
  if d.mode <> Read then raise (Bad_descriptor fd);
  let len = Buffer.length d.file.content in
  d.pos <- min len (d.pos + n)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

let open_count t = t.open_count
let max_open t = t.max_open
let total_opens t = t.total_opens
let total_closes t = t.total_closes
let bytes_written t = t.bytes_written

(** Descriptors still open: the leak count at end of run. *)
let leaked t = t.open_count
