(** Tokenizer for Scheme source. *)

exception Error of string

type token =
  | LPAREN
  | RPAREN
  | QUOTE  (** ' *)
  | QUASIQUOTE  (** ` *)
  | UNQUOTE  (** , *)
  | UNQUOTE_SPLICING  (** ,@ *)
  | VECTOR_OPEN  (** #( *)
  | DOT
  | BOOL of bool
  | INT of int
  | FLOAT of float
  | CHAR of char
  | STRING of string
  | SYMBOL of string
  | EOF

type t = { src : string; mutable pos : int; mutable tok_start : int }

let create src = { src; pos = 0; tok_start = 0 }

(** Source offset at which the most recently returned token began (after
    skipping whitespace and comments).  Lets {!Reader.read_prefix} report
    how much input one datum consumed. *)
let token_start t = t.tok_start

let peek t = if t.pos < String.length t.src then Some t.src.[t.pos] else None
let advance t = t.pos <- t.pos + 1

let is_delimiter = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '[' | ']' | '"' | ';' | '\'' -> true
  | _ -> false

let is_symbol_char c = not (is_delimiter c)

let rec skip_atmosphere t =
  match peek t with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance t;
      skip_atmosphere t
  | Some ';' ->
      let rec to_eol () =
        match peek t with
        | Some '\n' | None -> ()
        | Some _ ->
            advance t;
            to_eol ()
      in
      to_eol ();
      skip_atmosphere t
  | _ -> ()

let read_string_literal t =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek t with
    | None -> raise (Error "unterminated string literal")
    | Some '"' -> advance t
    | Some '\\' ->
        advance t;
        (match peek t with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '"' -> Buffer.add_char buf '"'
        | Some c -> Buffer.add_char buf c
        | None -> raise (Error "unterminated escape"));
        advance t;
        loop ()
    | Some c ->
        Buffer.add_char buf c;
        advance t;
        loop ()
  in
  loop ();
  Buffer.contents buf

let read_atom t =
  let start = t.pos in
  while match peek t with Some c when is_symbol_char c -> true | _ -> false do
    advance t
  done;
  String.sub t.src start (t.pos - start)

let read_hash t =
  advance t (* consume # *);
  match peek t with
  | Some 't' ->
      advance t;
      BOOL true
  | Some 'f' ->
      advance t;
      BOOL false
  | Some '(' ->
      advance t;
      VECTOR_OPEN
  | Some '\\' ->
      advance t;
      let name = read_atom t in
      let c =
        if String.length name = 1 then name.[0]
        else
          match String.lowercase_ascii name with
        | "space" -> ' '
        | "newline" | "linefeed" -> '\n'
        | "tab" -> '\t'
        | "return" -> '\r'
        | "nul" | "null" -> '\000'
        | "" -> (
            (* #\( and friends: the delimiter itself is the character. *)
            match peek t with
            | Some c ->
                advance t;
                c
            | None -> raise (Error "bad character literal"))
        | s -> raise (Error ("bad character literal: #\\" ^ s))
      in
      CHAR c
  | _ -> raise (Error "bad # syntax")

(* Optional sign, then a digit, then digits or underscores. *)
let is_decimal_integer a =
  let n = String.length a in
  let i = if n > 0 && (a.[0] = '-' || a.[0] = '+') then 1 else 0 in
  i < n
  && a.[i] >= '0' && a.[i] <= '9'
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '_')
       (String.sub a i (n - i))

let number a =
  match int_of_string_opt a with
  | Some n when n >= Gbc_runtime.Word.fixnum_min && n <= Gbc_runtime.Word.fixnum_max ->
      Some (INT n)
  | Some n -> Some (FLOAT (float_of_int n))
  | None -> (
      match float_of_string_opt a with
      | Some f
        when String.exists (fun c -> c = '.' || c = 'e' || c = 'E') a
             || is_decimal_integer a ->
          Some (FLOAT f)
      | _ -> None)

let classify_atom a = match number a with Some tok -> tok | None -> SYMBOL a

let next t =
  skip_atmosphere t;
  t.tok_start <- t.pos;
  match peek t with
  | None -> EOF
  | Some '(' | Some '[' ->
      advance t;
      LPAREN
  | Some ')' | Some ']' ->
      advance t;
      RPAREN
  | Some '\'' ->
      advance t;
      QUOTE
  | Some '`' ->
      advance t;
      QUASIQUOTE
  | Some ',' ->
      advance t;
      if peek t = Some '@' then begin
        advance t;
        UNQUOTE_SPLICING
      end
      else UNQUOTE
  | Some '"' ->
      advance t;
      STRING (read_string_literal t)
  | Some '#' -> read_hash t
  | Some _ -> (
      let a = read_atom t in
      if a = "." then DOT
      else if a = "" then raise (Error "unexpected character")
      else classify_atom a)
