(** Guarded ports: the paper's Section 3 example, transliterated.

    A dedicated port guardian watches every port opened through the guarded
    open operations.  The paper's [close-dropped-ports] retrieves ports
    proven inaccessible and closes them, flushing unwritten output first;
    every guarded open, {!exit} and the installed collect handler run it. *)

type t

val create : Ctx.t -> t
val dispose : t -> unit

val guard : t -> Gbc_runtime.Word.t -> unit
(** Register an existing port with the port guardian. *)

val open_input : t -> string -> Gbc_runtime.Word.t
(** [guarded-open-input-file]: closes dropped ports, then opens and
    guards. *)

val open_output : t -> string -> Gbc_runtime.Word.t

val exit : t -> unit
(** [guarded-exit]: final clean-up. *)

val install_collect_handler : t -> unit
(** Install the paper's collect-request handler:
    [(lambda () (collect) (close-dropped-ports))]. *)

val closed_by_guardian : t -> int
val flushed_bytes : t -> int
