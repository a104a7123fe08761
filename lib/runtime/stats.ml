(** Work counters.

    The paper's claims are complexity claims ("overhead proportional to the
    work already done", "proportional to the number of clean-up actions
    actually performed"), so the collector and the guardian machinery count
    the work they do.  [per_gc] counters are reset at the start of each
    collection; [totals] accumulate over the heap's lifetime. *)

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
          segment-granular scan would have examined; the
          [card_words_swept / dirty_candidate_words] ratio is the card
          table's win *)
  mutable guardian_pend_checks : int;
      (** tconc accessibility checks performed by the guardian fixpoint;
          O(1) amortized per pend-final entry with the worklist *)
  mutable protected_entries_visited : int;
      (** entries of protected lists of the collected generations — the
          guardian-specific collector overhead claimed to be proportional
          to work already done *)
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

let zero () =
  {
    collections = 0;
    objects_copied = 0;
    words_copied = 0;
    words_swept = 0;
    root_words = 0;
    dirty_segments_scanned = 0;
    cards_scanned = 0;
    card_words_swept = 0;
    dirty_candidate_words = 0;
    guardian_pend_checks = 0;
    protected_entries_visited = 0;
    guardian_resurrections = 0;
    guardian_entries_promoted = 0;
    guardian_entries_dropped = 0;
    weak_pairs_scanned = 0;
    weak_pointers_broken = 0;
    ephemerons_scanned = 0;
    ephemerons_broken = 0;
    segments_freed = 0;
    segments_allocated = 0;
  }

let copy c = { c with collections = c.collections }

type t = {
  last : counters;  (** counters of the most recent collection *)
  total : counters;  (** lifetime totals *)
  mutable words_allocated : int;  (** mutator allocation, lifetime *)
  mutable words_allocated_since_gc : int;
  mutable guardian_polls : int;  (** mutator guardian invocations *)
  mutable guardian_hits : int;  (** polls that returned an object *)
  mutable registrations : int;
  mutable tconc_enqueues : int;  (** cells appended (collector and mutator) *)
  mutable tconc_dequeues : int;  (** mutator removals that yielded an element *)
  (* Write-barrier counters live on the session, not on [last]: they count
     mutator activity between collections, which [begin_collection] would
     otherwise zero. *)
  mutable barrier_calls : int;  (** {!Heap.note_mutation} invocations *)
  mutable barrier_hits : int;  (** calls that stored an old-to-young pointer *)
  mutable cards_dirtied : int;  (** cards taken from clean to dirty *)
}

let create () =
  {
    last = zero ();
    total = zero ();
    words_allocated = 0;
    words_allocated_since_gc = 0;
    guardian_polls = 0;
    guardian_hits = 0;
    registrations = 0;
    tconc_enqueues = 0;
    tconc_dequeues = 0;
    barrier_calls = 0;
    barrier_hits = 0;
    cards_dirtied = 0;
  }

let begin_collection t =
  let l = t.last in
  l.collections <- 1;
  l.objects_copied <- 0;
  l.words_copied <- 0;
  l.words_swept <- 0;
  l.root_words <- 0;
  l.dirty_segments_scanned <- 0;
  l.cards_scanned <- 0;
  l.card_words_swept <- 0;
  l.dirty_candidate_words <- 0;
  l.guardian_pend_checks <- 0;
  l.protected_entries_visited <- 0;
  l.guardian_resurrections <- 0;
  l.guardian_entries_promoted <- 0;
  l.guardian_entries_dropped <- 0;
  l.weak_pairs_scanned <- 0;
  l.weak_pointers_broken <- 0;
  l.ephemerons_scanned <- 0;
  l.ephemerons_broken <- 0;
  l.segments_freed <- 0;
  l.segments_allocated <- 0

let add ~into:g l =
  g.collections <- g.collections + l.collections;
  g.objects_copied <- g.objects_copied + l.objects_copied;
  g.words_copied <- g.words_copied + l.words_copied;
  g.words_swept <- g.words_swept + l.words_swept;
  g.root_words <- g.root_words + l.root_words;
  g.dirty_segments_scanned <- g.dirty_segments_scanned + l.dirty_segments_scanned;
  g.cards_scanned <- g.cards_scanned + l.cards_scanned;
  g.card_words_swept <- g.card_words_swept + l.card_words_swept;
  g.dirty_candidate_words <- g.dirty_candidate_words + l.dirty_candidate_words;
  g.guardian_pend_checks <- g.guardian_pend_checks + l.guardian_pend_checks;
  g.protected_entries_visited <-
    g.protected_entries_visited + l.protected_entries_visited;
  g.guardian_resurrections <- g.guardian_resurrections + l.guardian_resurrections;
  g.guardian_entries_promoted <-
    g.guardian_entries_promoted + l.guardian_entries_promoted;
  g.guardian_entries_dropped <-
    g.guardian_entries_dropped + l.guardian_entries_dropped;
  g.weak_pairs_scanned <- g.weak_pairs_scanned + l.weak_pairs_scanned;
  g.weak_pointers_broken <- g.weak_pointers_broken + l.weak_pointers_broken;
  g.ephemerons_scanned <- g.ephemerons_scanned + l.ephemerons_scanned;
  g.ephemerons_broken <- g.ephemerons_broken + l.ephemerons_broken;
  g.segments_freed <- g.segments_freed + l.segments_freed;
  g.segments_allocated <- g.segments_allocated + l.segments_allocated

let end_collection t = add ~into:t.total t.last

let pp_counters ppf c =
  Format.fprintf ppf
    "@[<v>collections %d@ objects copied %d@ words copied %d@ words swept %d@ \
     root words %d@ dirty segments %d@ cards scanned %d@ card words swept %d@ \
     dirty candidate words %d@ guardian pend checks %d@ protected entries \
     visited %d@ resurrections %d@ entries promoted %d@ entries dropped %d@ \
     weak pairs scanned %d@ weak pointers broken %d@ ephemerons scanned %d@ \
     ephemerons broken %d@ segments freed %d@ segments allocated %d@]"
    c.collections c.objects_copied c.words_copied c.words_swept c.root_words
    c.dirty_segments_scanned c.cards_scanned c.card_words_swept
    c.dirty_candidate_words c.guardian_pend_checks c.protected_entries_visited
    c.guardian_resurrections c.guardian_entries_promoted
    c.guardian_entries_dropped c.weak_pairs_scanned c.weak_pointers_broken
    c.ephemerons_scanned c.ephemerons_broken c.segments_freed
    c.segments_allocated
