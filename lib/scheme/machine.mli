(** The stack VM executing {!Instr} code over the simulated heap.

    All VM state that can reference heap objects — the value stack, the
    accumulator, the current closure, saved closures in control frames, the
    constants table — is registered as a root scanner, so a collection can
    safely happen at any safepoint (the beginning of every call).  The
    collect-request handler, if installed from Scheme, is invoked
    re-entrantly through {!apply_closure}. *)

open Gbc_runtime

exception Error of string
(** A Scheme-level error (wrong types, arity, unbound variables, the
    [error] primitive).  The machine may be left mid-activation; call
    {!reset} before reusing it interactively. *)

exception Exit_signal
(** Raised by the [exit] primitive. *)

exception Load_image_signal of string
(** Raised by the [load-heap-image] primitive with the image path.  A
    machine cannot replace itself mid-execution, so the driver that owns
    it catches this, rebuilds a machine from the image
    ({!Scheme.load_image}) and continues on that one.  Forms remaining in
    the input that ran the primitive are discarded, exec-like. *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

type t

val create : ?ctx:Gbc.Ctx.t -> ?config:Config.t -> unit -> t
(** A bare machine: no primitives, no prelude (use {!Scheme.create} for a
    ready system). *)

val dispose : t -> unit

val heap : t -> Heap.t

(** The machine's collection record ring (128 records; the heap's
    telemetry is enabled by {!create}). *)
val gc_ring : t -> Telemetry.Ring.t option
val ctx : t -> Gbc.Ctx.t
val symtab : t -> Symtab.t

(** {1 Console} *)

val console_output : t -> string
val clear_console : t -> unit

val set_echo : t -> bool -> unit
(** Also write console output to stdout. *)

val print_string : t -> string -> unit

(** {1 Globals, constants, code} *)

val global_cell : t -> string -> int
(** Root cell of a global variable, created unbound on first use. *)


val materialize : t -> Sexpr.t -> Word.t
(** Build a heap value from external data (interning symbols). *)

val linker : t -> Compile.linker

val code : t -> int -> Instr.code
(** Code block by id; {!Error} past the table. *)

(** {1 Procedures} *)

val is_procedure : t -> Word.t -> bool

val closure_id : t -> Word.t -> int
(** A closure's field 0: a code id, or [-1 - prim id]; {!Error} where no fixnum is there. *)

val define_prim :
  t ->
  name:string ->
  arity_min:int ->
  ?arity_max:int ->
  (t -> int -> int -> Word.t) ->
  unit
(** Register a primitive bound to its global name.  [arity_max] defaults to
    [arity_min]; -1 means variadic.  The VM checks the arity, then calls
    the body with [(machine, base, n)]: the [n] arguments are stack slots
    [base .. base + n - 1], read with {!arg}.  They stay on the stack, and
    so rooted, until the body returns, so a body that collects or re-enters
    the VM ({!apply_closure}) must read them through {!arg} again
    afterwards rather than keep raw pointers.  A primitive registered as
    [call/cc], [call-with-current-continuation] or [apply] is dispatched by
    the VM itself (under any later alias) and its body never runs.  A
    primitive registered under the name of an open-coded op
    ({!Instr.ops}) must have that op's standard meaning: while the
    closure bound here stays in its global, the VM applies the op in
    place whenever the operands allow. *)

val arg : t -> int -> Word.t
(** [arg m i] is value-stack slot [i]: a primitive's arguments are
    [arg m base .. arg m (base + n - 1)]. *)

val in_handler : t -> bool
val set_in_handler : t -> bool -> unit

(** {1 Heap images}

    The compiled-code and constants tables live on the OCaml side;
    {!Scheme_image} carries them through a [gbc-image/1] file as extra
    sections and puts them back with {!restore_image_state}. *)

val image_codes : t -> Instr.code array
(** Snapshot of the code table, index-stable. *)

val image_consts : t -> Word.t array
(** Snapshot of the constants table (heap words, index-stable). *)

val restore_image_state :
  t ->
  codes:Instr.code array ->
  consts:Word.t array ->
  symbols:(string * Word.t) list ->
  unit
(** Install restored tables into a fresh machine over the restored heap
    (each code checked by {!Instr.check}, as the compiler's are: {!Error}),
    adopt the symbol section into the interning table, and rebuild the
    global-cell name map.  Call before {!Primitives.install}. *)

val apply_closure : t -> Word.t -> Word.t list -> Word.t
(** Call a Scheme closure from OCaml (used by the collect-request handler
    bridge).  Re-entrant: saves and restores the register file via the
    rooted value stack. *)

val call_with_error_handler : t -> thunk:Word.t -> handler:Word.t -> Word.t
(** Run [thunk] (a zero-argument closure); if a Scheme error escapes,
    restore the register file and apply [handler] to the error message (a
    heap string).  Backs the [with-error-handler] primitive. *)

(** {1 Evaluation} *)

val run_code : t -> Instr.code -> Word.t
(** Run a compiled top-level code (one clause, no arguments).  The first
    run registers it in the code table, where continuations captured
    inside it find their resume point; later runs of the same (physically
    equal) code reuse that entry. *)

val eval_datum : t -> Sexpr.t -> Word.t
(** Compile and run one top-level form; the returned word is valid until
    the next collection. *)

val eval_string : t -> string -> Word.t
(** Evaluate every form in the source, returning the last result. *)

val reset : t -> unit
(** Discard in-flight activation state (after an error escaped the
    interpreter loop, e.g. in a REPL). *)
