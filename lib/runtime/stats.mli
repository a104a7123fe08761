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
}

val create : unit -> t

val begin_collection : t -> unit
(** Reset [last] at the start of a collection. *)

val add : into:counters -> counters -> unit
(** Add every field of the second counters into [into]. *)

val end_collection : t -> unit
(** Fold [last] into [total] at the end of a collection. *)

val pp_counters : Format.formatter -> counters -> unit
