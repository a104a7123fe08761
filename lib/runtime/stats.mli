(** Work counters.

    The paper's claims are complexity claims ("overhead proportional to the
    work already done", "proportional to the number of clean-up actions
    actually performed"), so the collector and the guardian machinery count
    the work they do. *)

type counters = {
  mutable collections : int;
  mutable objects_copied : int;
  mutable words_copied : int;
  mutable words_swept : int;  (** words examined during Cheney scans *)
  mutable root_words : int;
  mutable dirty_segments_scanned : int;
  mutable cards_scanned : int;
      (** dirty cards visited by the card-granular dirty scan *)
  mutable card_words_swept : int;
      (** words examined inside dirty cards — the actual dirty-scan work *)
  mutable dirty_candidate_words : int;
      (** used words of the dirty segments scanned — what a
          segment-granular scan would have examined *)
  mutable guardian_pend_checks : int;
      (** tconc accessibility checks performed by the guardian fixpoint *)
  mutable protected_entries_visited : int;
      (** entries of protected lists of the collected generations — the
          guardian-specific collector overhead *)
  mutable guardian_resurrections : int;
      (** inaccessible registered objects saved and queued *)
  mutable guardian_entries_promoted : int;
  mutable guardian_entries_dropped : int;  (** entries whose guardian died *)
  mutable weak_pairs_scanned : int;
  mutable weak_pointers_broken : int;
  mutable ephemerons_scanned : int;
  mutable ephemerons_broken : int;
  mutable segments_freed : int;
  mutable segments_allocated : int;
      (** to-space segments acquired by this collection *)
}

val zero : unit -> counters

val copy : counters -> counters
(** A private snapshot (counters are mutable records). *)

type t = {
  last : counters;  (** counters of the most recent collection *)
  total : counters;  (** lifetime totals *)
  mutable words_allocated : int;
  mutable words_allocated_since_gc : int;
  mutable guardian_polls : int;  (** mutator guardian invocations *)
  mutable guardian_hits : int;  (** polls that returned an object *)
  mutable registrations : int;
  mutable tconc_enqueues : int;  (** cells appended (collector and mutator) *)
  mutable tconc_dequeues : int;  (** mutator removals that yielded an element *)
  mutable barrier_calls : int;
      (** {!Heap.note_mutation} invocations; session-level because they
          count mutator activity between collections *)
  mutable barrier_hits : int;  (** calls that stored an old-to-young pointer *)
  mutable cards_dirtied : int;  (** cards taken from clean to dirty *)
  mutable image_saves : int;  (** heap images serialized from this heap *)
  mutable image_loads : int;  (** images this heap was rebuilt from *)
  mutable image_bytes_written : int;  (** on-disk bytes produced by saves *)
  mutable image_bytes_read : int;  (** image bytes consumed by loads *)
  mutable image_words_written : int;  (** live heap words serialized *)
  mutable image_words_read : int;  (** heap words rebuilt by loads *)
  mutable vm_calls : int;
      (** procedure applications by the Scheme VM's call instructions *)
  mutable vm_prim_calls : int;  (** of those, calls that ran a primitive *)
}

val create : unit -> t

(** {1 The counter table}

    The one list of counters.  Every reset, fold, print and export (bench
    JSON, Chrome trace args, the [--gc-log] line, [--gc-stats]) walks these
    tables, so a counter added to a record without a row is caught by the
    table-coverage test rather than silently missing from the exports. *)

type row = {
  name : string;  (** export name: JSON key, Chrome arg and log label *)
  get : counters -> int;
  set : counters -> int -> unit;
}

val rows : row array
(** One row per field of {!counters}, in declaration order. *)

val session_rows : (string * (t -> int)) array
(** One [(export name, getter)] row per integer field of {!t}. *)

val to_list : counters -> (string * int) list
(** [(export name, value)] for every row, in table order. *)

val session_to_list : t -> (string * int) list
(** [(export name, value)] for every session row, in table order. *)

val begin_collection : t -> unit
(** Zero [last] at the start of a collection. *)

val add : into:counters -> counters -> unit
(** Add every counter of the second argument into [into]. *)

val end_collection : t -> unit
(** Fold [last] into [total] at the end of a collection. *)

val pp_values : Format.formatter -> (string * int) list -> unit
(** One [name value] line per pair. *)

val pp_counters : Format.formatter -> counters -> unit
(** [pp_values] of {!to_list}. *)
