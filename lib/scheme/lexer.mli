(** Tokenizer for Scheme source. *)

exception Error of string

type token =
  | LPAREN
  | RPAREN
  | QUOTE
  | QUASIQUOTE
  | UNQUOTE
  | UNQUOTE_SPLICING
  | VECTOR_OPEN
  | DOT
  | BOOL of bool
  | INT of int
  | FLOAT of float
  | CHAR of char
  | STRING of string
  | SYMBOL of string
  | EOF

type t

val create : string -> t

val number : string -> token option
(** The number an atom denotes, as [INT] or [FLOAT]; [None] if it is not
    one.  An integer outside [Word.fixnum_min .. Word.fixnum_max] is a
    [FLOAT].  The reader and [string->number] share this parser. *)

val next : t -> token
(** @raise Error on malformed input. *)

val token_start : t -> int
(** Source offset at which the most recently returned token began. *)
