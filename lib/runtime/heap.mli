(** The simulated segmented heap.

    A heap instance owns the store (segments of tagged words), the segment
    information table, per-space allocation cursors, the root registry, the
    per-generation protected lists of guardian registrations, and work
    counters.

    Mutator allocation never runs the collector: collections happen only at
    explicit safepoints ({!Runtime.safepoint}) or explicit
    {!Collector.collect} calls, so OCaml code may hold raw words between
    its own safepoints.  Anything that must survive a collection has to be
    reachable from a root. *)

exception Allocation_forbidden
(** Raised by mutator allocation while a collector-invoked finalization
    thunk runs (the Dickey baseline's restriction). *)

exception Out_of_memory
(** Raised by mutator allocation once [Config.max_heap_words] would be
    exceeded.  Collections are exempt. *)

exception Poisoned of string
(** Raised by {!Collector.collect}, {!Runtime.safepoint} and
    [Image.save_string] once a collection has been aborted by an
    exception (a raising root scanner, say).  Such a heap is
    half-collected and never collects again; the payload names the
    original exception, which the aborted collection itself re-raised. *)

val stride_bits : int
val max_segment_words : int

type seg_info = {
  mutable space : Space.t;
  mutable generation : int;
  mutable used : int;  (** words allocated so far *)
  mutable size : int;  (** capacity in words *)
  mutable live : bool;
  mutable condemned : bool;  (** part of from-space of the current GC *)
  mutable scan : int;  (** collector scan cursor (words) *)
  mutable on_dirty_list : bool;  (** listed in [dirty] *)
  mutable large : bool;  (** oversized single-object segment *)
  mutable cards : Bytes.t;
      (** byte-per-card remembered set: card [c] holds the youngest
          generation any slot in card [c] may reference, or {!card_clean}
          when clean.  A segment with a marked card is on the dirty
          list. *)
  mutable crossing : int array;
      (** card crossing map: offset of the object covering each card's
          first word (maintained by {!note_object}). *)
}

type cursor = { mutable seg : int }

type faults = {
  mutable fail_segment_alloc_at : int;
      (** mutator segment acquisitions remaining before a one-shot
          {!Out_of_memory} (counted down per acquisition); 0 = disarmed *)
  mutable corrupt_forward_period : int;
      (** debug bug: corrupt every [n]th forwarded pointer to an interior
          address during collections; 0 = off *)
  mutable forwards_seen : int;
  mutable injected : int;  (** faults actually fired so far *)
}
(** Fault-injection state for the torture harness ({!Gbc_torture}).
    Disarmed in a new heap; the fields are armed and re-armed at
    runtime. *)

type protected = {
  p_objs : Vec.Int.t;
  p_reps : Vec.Int.t;
  p_tconcs : Vec.Int.t;
  p_gids : Vec.Int.t;
}
(** Parallel vectors: one guardian registration per index.  [rep] is the
    word enqueued when [obj] proves inaccessible (equal to [obj] for plain
    registrations; a distinct agent for the paper's Section 5 interface).
    [gid] is the owning guardian's telemetry id. *)

type t = {
  config : Config.t;
  stats : Stats.t;
  telemetry : Telemetry.t;
  card_shift : int;  (** log2 of the effective card size in words *)
  mutable segs : int array array;
  mutable infos : seg_info array;
  mutable nsegs : int;
  free_std : Vec.Int.t;
  free_ids : Vec.Int.t;
  mutable spare_large : int array;
  mutator_cursors : cursor array;
  gc_cursors : cursor array;
  gen_segs : Vec.Int.t array;  (** per generation: its live seg ids *)
  gc_new_segs : Vec.Int.t;  (** segments acquired during the current GC *)
  gc_ephemerons : Vec.Int.t;
      (** key-slot addresses of ephemerons discovered but not yet resolved
          during the current GC *)
  gc_forward_log : Vec.Int.t;
      (** from-space addresses of objects forwarded while
          [gc_log_forwards] — the guardian fixpoint's worklist feed *)
  mutable gc_log_forwards : bool;
  gc_hold : protected;
  gc_final : protected;
      (** guardian-pass scratch: the collected entries whose object is
          still accessible, and those whose object proved inaccessible *)
  gc_work : Vec.Int.t;  (** guardian-pass work list: indices into [gc_final] *)
  dirty : Vec.Int.t;  (** seg ids with a marked card: the remembered set *)
  protected : protected array;  (** per generation *)
  mutable global_cells : int array;
  mutable global_cells_len : int;
  mutable global_free : int list;
  mutable scanners : (int * ((Word.t -> Word.t) -> unit)) list;
  mutable weak_scanners : (int * ((Word.t -> Word.t option) -> unit)) list;
  mutable next_scanner_id : int;
  mutable in_collection : bool;
  mutable poisoned : string option;
      (** the exception that aborted a GC; set by {!poison} only *)
  mutable safepoint_limit : int;
      (** [words_allocated_since_gc] from which {!Runtime.safepoint} leaves
          its one-compare fast path: [gen0_trigger_words], or [min_int]
          once poisoned *)
  mutable alloc_forbidden : bool;
  mutable segment_words_live : int;  (** capacity of all live segments *)
  mutable gc_epoch : int;
  promoted_words : int array;
      (** per generation [g >= 1], words promoted into it since it was last
          collected: the input of {!Runtime.collect_auto}; entry 0 stays 0 *)
  mutable last_gc_generation : int;  (** oldest generation of the last GC *)
  mutable collect_request_handler : (t -> unit) option;
  mutable post_gc_hooks : (int * (t -> unit)) list;
  faults : faults;
}

val create : ?config:Config.t -> unit -> t
val config : t -> Config.t
val stats : t -> Stats.t

val check_poisoned : t -> unit
(** @raise Poisoned if a collection of this heap was aborted. *)

val poison : t -> string -> unit
(** Mark the heap poisoned by the exception named [e]: from now on every
    collection, safepoint and image save raises {!Poisoned}. *)

val faults : t -> faults
(** The heap's fault-injection state (all zeroes unless armed). *)

val telemetry : t -> Telemetry.t
(** The heap's telemetry hub (created disabled; see {!Telemetry}). *)

val gc_epoch : t -> int
(** Bumped at the end of every collection; lets caches (e.g. address-hash
    tables) detect that objects may have moved. *)

val max_generation : t -> int

(** {1 Store access} *)

val seg_of_addr : int -> int
val off_of_addr : int -> int
val addr_of : seg:int -> off:int -> int
val load : t -> int -> Word.t
val store : t -> int -> Word.t -> unit
val info : t -> int -> seg_info
val info_of_word : t -> Word.t -> seg_info

val generation_of_word : t -> Word.t -> int
(** Generation a word lives in; immediates report [max_int]. *)

(** {1 Segments} *)

val acquire_segment : t -> space:Space.t -> generation:int -> min_words:int -> int
val release_segment : t -> int -> unit

val live_segments_of_gen : t -> int -> Vec.Int.t
(** Live segments of a generation, each once: the heap's own list, valid
    until the next allocation into that generation. *)

(** {1 Allocation} *)

val alloc : t -> space:Space.t -> int -> int
(** Mutator allocation: raw words in generation 0, zero-initialized as
    fixnum 0 until the caller fills them.  Never collects.
    @raise Allocation_forbidden inside finalization thunks. *)

val gc_alloc : t -> space:Space.t -> generation:int -> int -> int
(** Collector allocation into the target generation during a collection. *)

val reset_cursors : cursor array -> unit

val note_object : t -> seg_info -> off:int -> nwords:int -> unit
(** [note_object t si ~off ~nwords] records an object of [nwords] words at
    offset [off] of [si]'s segment in the crossing map.  The allocator
    calls it for every object; the image loader replays it. *)

(** {1 Remembered set (card marking)} *)

val note_mutation : t -> addr:int -> value:Word.t -> unit
(** The mutator write barrier: record that [value] was stored at [addr].
    An old-to-young store marks the card covering [addr] and remembers
    the segment; everything else falls out after one or two compares.
    Called by every pointer-field mutator in {!Obj}. *)

val mark_card : t -> seg_info -> addr:int -> gen:int -> unit
(** [mark_card t si ~addr ~gen] lowers the card byte covering [addr] to
    [gen] and remembers the segment; [si] is the info of [addr]'s segment
    and [gen] must be younger than its generation.  {!note_ref} without
    the lookup and the test, for callers that hold both. *)

val note_ref : t -> addr:int -> gen:int -> unit
(** Collector-side barrier: record that the slot at [addr] references
    generation [gen], marking the covering card and remembering the
    segment when [gen] is younger.  The slot's own write is the
    caller's. *)

val remember : t -> int -> unit
(** Put a segment on the dirty list unless it is there already. *)

val refresh_remembered : t -> int -> unit
(** Put a segment back on the dirty list if some card byte is not
    {!card_clean}.  Used after a card-granular scan. *)

val card_clean : int
(** The card byte meaning "no younger-generation references" (255). *)

val card_words : t -> int
(** Effective card size in words: the next power of two >=
    [Config.card_words], capped at {!max_segment_words}. *)

val card_of_off : t -> int -> int
(** Card index covering a word offset. *)

val cards_in_use : t -> int -> int
(** Number of cards covering a segment's used words. *)

val card_min_gen : t -> seg:int -> card:int -> int
(** The card byte: youngest generation the card may reference, or
    {!card_clean}. *)

val card_object_start : t -> seg:int -> card:int -> int
(** Offset of the object covering the card's first word (crossing map). *)

(** {1 Roots} *)

val new_cell : t -> Word.t -> int
(** Allocate a global root cell: scanned (and updated) by every
    collection. *)

val read_cell : t -> int -> Word.t
val write_cell : t -> int -> Word.t -> unit
val free_cell : t -> int -> unit

val add_scanner : t -> ((Word.t -> Word.t) -> unit) -> int
(** Register a root scanner: during a collection it is called with the
    forwarding function and must apply it to every root word it owns,
    storing back the results.  Returns an id for {!remove_scanner}. *)

val remove_scanner : t -> int -> unit

val add_weak_scanner : t -> ((Word.t -> Word.t option) -> unit) -> int
(** Register a weak scanner: called after each collection's weak pass with
    a lookup mapping an old word to its new location ([None] if reclaimed).
    Weak scanners do not keep objects alive. *)

val remove_weak_scanner : t -> int -> unit
val iter_scanners : t -> f:(((Word.t -> Word.t) -> unit) -> unit) -> unit
val iter_weak_scanners : t -> f:(((Word.t -> Word.t option) -> unit) -> unit) -> unit

val with_cell : t -> Word.t -> (int -> 'a) -> 'a
(** Scoped temporary root cell. *)

(** {1 Protected lists (guardian registrations)} *)

val protected_add :
  t -> gid:int -> obj:Word.t -> rep:Word.t -> tconc:Word.t -> unit
(** Add an entry to generation 0's protected list, as in the paper.
    [gid] is the registering guardian's telemetry id ({!Guardian.id}). *)

val protected_add_gen :
  t -> generation:int -> gid:int -> obj:Word.t -> rep:Word.t -> tconc:Word.t -> unit
(** Add an entry to a generation's protected list without counting a
    registration: the collector's promotion and the image loader. *)

val protected_push :
  protected -> gid:int -> obj:Word.t -> rep:Word.t -> tconc:Word.t -> unit
(** Append an entry to a protected list. *)

val protected_clear : protected -> unit

val protected_length : t -> int -> int

(** {1 Post-GC hooks} *)

val add_post_gc_hook : t -> (t -> unit) -> int
val remove_post_gc_hook : t -> int -> unit
val run_post_gc_hooks : t -> unit

(** {1 Introspection} *)

val live_words : t -> int
val live_segments : t -> int
