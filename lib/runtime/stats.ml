(** Work counters.

    The paper's claims are complexity claims ("overhead proportional to the
    work already done", "proportional to the number of clean-up actions
    actually performed"), so the collector and the guardian machinery count
    the work they do.  [last] is reset at the start of each collection;
    [total] accumulates over the heap's lifetime.  [rows] and
    [session_rows] are the one list of counters and their export names:
    every reset, fold, print and export walks them. *)

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
      (** to-space segments acquired by this collection *)
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
  mutable image_saves : int;
  mutable image_loads : int;
  mutable image_bytes_written : int;
  mutable image_bytes_read : int;
  mutable image_words_written : int;
  mutable image_words_read : int;
  mutable vm_calls : int;  (** Scheme VM call instructions executed *)
  mutable vm_prim_calls : int;  (** of those, calls that ran a primitive *)
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
    image_saves = 0;
    image_loads = 0;
    image_bytes_written = 0;
    image_bytes_read = 0;
    image_words_written = 0;
    image_words_read = 0;
    vm_calls = 0;
    vm_prim_calls = 0;
  }

(* ------------------------------------------------------------------ *)
(* The counter table                                                   *)

type row = {
  name : string;
  get : counters -> int;
  set : counters -> int -> unit;
}

let row name get set = { name; get; set }

(* An export name is the key the bench JSON or the Chrome args used before
   the table existed, where there was one, and the field name otherwise. *)
let rows =
  [|
    row "collections" (fun c -> c.collections) (fun c v -> c.collections <- v);
    row "objects_copied" (fun c -> c.objects_copied) (fun c v ->
        c.objects_copied <- v);
    row "words_copied" (fun c -> c.words_copied) (fun c v -> c.words_copied <- v);
    row "words_swept" (fun c -> c.words_swept) (fun c v -> c.words_swept <- v);
    row "root_words" (fun c -> c.root_words) (fun c v -> c.root_words <- v);
    row "dirty_segments_scanned" (fun c -> c.dirty_segments_scanned) (fun c v ->
        c.dirty_segments_scanned <- v);
    row "cards_scanned" (fun c -> c.cards_scanned) (fun c v ->
        c.cards_scanned <- v);
    row "card_words_swept" (fun c -> c.card_words_swept) (fun c v ->
        c.card_words_swept <- v);
    row "dirty_candidate_words" (fun c -> c.dirty_candidate_words) (fun c v ->
        c.dirty_candidate_words <- v);
    row "guardian_pend_checks" (fun c -> c.guardian_pend_checks) (fun c v ->
        c.guardian_pend_checks <- v);
    row "entries_visited" (fun c -> c.protected_entries_visited) (fun c v ->
        c.protected_entries_visited <- v);
    row "resurrections" (fun c -> c.guardian_resurrections) (fun c v ->
        c.guardian_resurrections <- v);
    row "guardian_entries_promoted" (fun c -> c.guardian_entries_promoted)
      (fun c v -> c.guardian_entries_promoted <- v);
    row "entries_dropped" (fun c -> c.guardian_entries_dropped) (fun c v ->
        c.guardian_entries_dropped <- v);
    row "weak_pairs_scanned" (fun c -> c.weak_pairs_scanned) (fun c v ->
        c.weak_pairs_scanned <- v);
    row "weak_broken" (fun c -> c.weak_pointers_broken) (fun c v ->
        c.weak_pointers_broken <- v);
    row "ephemerons_scanned" (fun c -> c.ephemerons_scanned) (fun c v ->
        c.ephemerons_scanned <- v);
    row "ephemerons_broken" (fun c -> c.ephemerons_broken) (fun c v ->
        c.ephemerons_broken <- v);
    row "segments_freed" (fun c -> c.segments_freed) (fun c v ->
        c.segments_freed <- v);
    row "segments_allocated" (fun c -> c.segments_allocated) (fun c v ->
        c.segments_allocated <- v);
  |]

let session_rows =
  [|
    ("words_allocated", fun s -> s.words_allocated);
    ("words_allocated_since_gc", fun s -> s.words_allocated_since_gc);
    ("polls", fun s -> s.guardian_polls);
    ("hits", fun s -> s.guardian_hits);
    ("registrations", fun s -> s.registrations);
    ("tconc_enqueues", fun s -> s.tconc_enqueues);
    ("tconc_dequeues", fun s -> s.tconc_dequeues);
    ("barrier_calls", fun s -> s.barrier_calls);
    ("barrier_hits", fun s -> s.barrier_hits);
    ("cards_dirtied", fun s -> s.cards_dirtied);
    ("image_saves", fun s -> s.image_saves);
    ("image_loads", fun s -> s.image_loads);
    ("image_bytes_written", fun s -> s.image_bytes_written);
    ("image_bytes_read", fun s -> s.image_bytes_read);
    ("image_words_written", fun s -> s.image_words_written);
    ("image_words_read", fun s -> s.image_words_read);
    ("vm_calls", fun s -> s.vm_calls);
    ("vm_prim_calls", fun s -> s.vm_prim_calls);
  |]

let to_list c = Array.to_list (Array.map (fun r -> (r.name, r.get c)) rows)

let session_to_list s =
  Array.to_list (Array.map (fun (name, get) -> (name, get s)) session_rows)

let begin_collection t = Array.iter (fun r -> r.set t.last 0) rows

let add ~into:g l = Array.iter (fun r -> r.set g (r.get g + r.get l)) rows

let end_collection t = add ~into:t.total t.last

let pp_values ppf l =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf (name, v) -> Format.fprintf ppf "%s %d" name v))
    l

let pp_counters ppf c = pp_values ppf (to_list c)
