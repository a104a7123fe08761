(** The simulated segmented heap.

    A heap instance owns:
    - the {e store}: an array of segments, each an [int array] of tagged
      words (see {!Word});
    - the {e segment information table} mapping each segment to its space,
      generation and dirty status (the paper's Chez Scheme substrate);
    - per-space allocation cursors for the mutator (generation 0) and for
      the collector (the target generation during a collection);
    - the {e root} registry (global cells plus arbitrary scanners);
    - the per-generation {e protected lists} of guardian registrations;
    - work counters ({!Stats}).

    Mutator allocation never runs the collector: collections happen only at
    explicit safepoints (see {!Runtime.safepoint}), so OCaml code is free to
    hold raw words between its own safepoints.  Anything that must survive a
    collection has to be reachable from a root. *)

exception Allocation_forbidden
(** Raised by mutator allocation while a collector-invoked finalization
    thunk is running (the Dickey baseline's restriction, see
    {!Baselines.Finalize}). *)

exception Out_of_memory
(** Raised by mutator allocation once the configured [max_heap_words]
    ceiling would be exceeded.  Collections are exempt (copying transiently
    needs both spaces). *)

exception Poisoned of string
(** Raised by {!Collector.collect}, {!Runtime.safepoint} and image saving
    once a collection has been aborted by an exception, which leaves the
    heap half-collected; the payload names that exception. *)

let stride_bits = 20
let max_segment_words = 1 lsl stride_bits

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
          (255) when no slot references a younger generation.  A segment
          with a marked card is on the dirty list. *)
  mutable crossing : int array;
      (** card crossing map: [crossing.(c)] is the offset of the object
          covering the first word of card [c], so a card of a typed-space
          segment can be scanned from an object header.  Maintained by
          {!note_object} for every allocation. *)
}

type cursor = { mutable seg : int }  (** -1 when no current segment *)

type protected = {
  (* Parallel vectors: one guardian registration per index.  [rep] is the
     word enqueued when [obj] proves inaccessible; it equals [obj] for plain
     registrations and is a distinct "agent" for the generalized interface
     of the paper's Section 5.  [gid] is the owning guardian's telemetry id
     (stable across copying collections, unlike the tconc word). *)
  p_objs : Vec.Int.t;
  p_reps : Vec.Int.t;
  p_tconcs : Vec.Int.t;
  p_gids : Vec.Int.t;
}

type faults = {
  (* Fault-injection state for the torture harness (lib/torture).  Created
     disarmed; armed and re-armed at runtime. *)
  mutable fail_segment_alloc_at : int;
      (** mutator segment acquisitions remaining before a one-shot
          {!Out_of_memory}; 0 = disarmed *)
  mutable corrupt_forward_period : int;
      (** corrupt every [n]th forwarded pointer; 0 = off *)
  mutable forwards_seen : int;  (** forwards counted while the bug is armed *)
  mutable injected : int;  (** faults actually fired so far *)
}

type t = {
  config : Config.t;
  stats : Stats.t;
  telemetry : Telemetry.t;
  card_shift : int;  (** log2 of the effective card size in words *)
  mutable segs : int array array;
  mutable infos : seg_info array;
  mutable nsegs : int;
  free_std : Vec.Int.t;  (** stack of free segments whose array is retained *)
  free_ids : Vec.Int.t;  (** stack of free segment ids whose array was dropped *)
  mutable spare_large : int array;  (** the array of the last large segment freed *)
  mutator_cursors : cursor array;  (** per space: generation-0 allocation *)
  gc_cursors : cursor array;  (** per space: target-generation allocation *)
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
  dirty : Vec.Int.t;  (** seg ids with a marked card *)
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
  mutable gc_epoch : int;  (** bumped at the end of every collection *)
  promoted_words : int array;
      (** per generation [g >= 1], words promoted into it since it was last
          collected (schedule input); entry 0 stays 0 *)
  mutable last_gc_generation : int;  (** oldest generation of the last GC *)
  mutable collect_request_handler : (t -> unit) option;
  mutable post_gc_hooks : (int * (t -> unit)) list;
  faults : faults;
}

let fresh_info () =
  {
    space = Space.Pair;
    generation = 0;
    used = 0;
    size = 0;
    live = false;
    condemned = false;
    scan = 0;
    on_dirty_list = false;
    large = false;
    cards = Bytes.empty;
    crossing = [||];
  }

(* A card byte of 255 means "clean"; Config.v keeps max_generation <= 254
   so every real generation fits below it. *)
let card_clean = 255

(* Effective card size: the next power of two >= card_words, capped at the
   segment stride so a card never exceeds the largest segment. *)
let card_shift_of_words words =
  let s = ref 3 in
  while !s < stride_bits && 1 lsl !s < words do
    incr s
  done;
  !s

let protected_create () =
  {
    p_objs = Vec.Int.create ();
    p_reps = Vec.Int.create ();
    p_tconcs = Vec.Int.create ();
    p_gids = Vec.Int.create ();
  }

let create ?(config = Config.default) () =
  {
    config;
    stats = Stats.create ();
    telemetry = Telemetry.create ();
    card_shift = card_shift_of_words config.card_words;
    segs = Array.make 16 [||];
    infos = Array.init 16 (fun _ -> fresh_info ());
    nsegs = 0;
    free_std = Vec.Int.create ();
    free_ids = Vec.Int.create ();
    spare_large = [||];
    mutator_cursors = Array.init Space.count (fun _ -> { seg = -1 });
    gc_cursors = Array.init Space.count (fun _ -> { seg = -1 });
    gen_segs = Array.init (config.max_generation + 1) (fun _ -> Vec.Int.create ());
    gc_new_segs = Vec.Int.create ();
    gc_ephemerons = Vec.Int.create ();
    gc_forward_log = Vec.Int.create ();
    gc_log_forwards = false;
    gc_hold = protected_create ();
    gc_final = protected_create ();
    gc_work = Vec.Int.create ();
    dirty = Vec.Int.create ();
    protected = Array.init (config.max_generation + 1) (fun _ -> protected_create ());
    global_cells = Array.make 64 Word.nil;
    global_cells_len = 0;
    global_free = [];
    scanners = [];
    weak_scanners = [];
    next_scanner_id = 0;
    in_collection = false;
    poisoned = None;
    safepoint_limit = config.gen0_trigger_words;
    alloc_forbidden = false;
    segment_words_live = 0;
    gc_epoch = 0;
    promoted_words = Array.make (config.max_generation + 1) 0;
    last_gc_generation = -1;
    collect_request_handler = None;
    post_gc_hooks = [];
    faults =
      {
        fail_segment_alloc_at = 0;
        corrupt_forward_period = 0;
        forwards_seen = 0;
        injected = 0;
      };
  }

let[@inline] check_poisoned t = match t.poisoned with Some e -> raise (Poisoned e) | None -> ()

let poison t e =
  t.poisoned <- Some e;
  t.safepoint_limit <- min_int

let[@inline] config t = t.config
let faults t = t.faults
let[@inline] stats t = t.stats
let telemetry t = t.telemetry
let gc_epoch t = t.gc_epoch
let max_generation t = t.config.max_generation
let card_words t = 1 lsl t.card_shift

(* Number of cards covering [words] words of a segment. *)
let cards_for t words = if words <= 0 then 0 else ((words - 1) lsr t.card_shift) + 1

(* ------------------------------------------------------------------ *)
(* Store access                                                        *)

let seg_of_addr addr = addr lsr stride_bits
let off_of_addr addr = addr land (max_segment_words - 1)
let addr_of ~seg ~off = (seg lsl stride_bits) lor off

let[@inline] load t addr = t.segs.(seg_of_addr addr).(off_of_addr addr)
let[@inline] store t addr w = t.segs.(seg_of_addr addr).(off_of_addr addr) <- w

let info t seg = t.infos.(seg)
let info_of_word t w = t.infos.(seg_of_addr (Word.addr w))

(** Generation an arbitrary word "lives in": immediates and fixnums are
    ageless and report [max_int] (they never need remembering). *)
let generation_of_word t w =
  if Word.is_pointer w then (info_of_word t w).generation else max_int

(* ------------------------------------------------------------------ *)
(* Segment management                                                  *)

let grow_tables t needed =
  if needed > Array.length t.segs then begin
    let cap = ref (Array.length t.segs) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let segs = Array.make !cap [||] in
    Array.blit t.segs 0 segs 0 t.nsegs;
    t.segs <- segs;
    let infos = Array.init !cap (fun i -> if i < t.nsegs then t.infos.(i) else fresh_info ()) in
    t.infos <- infos
  end

let fresh_seg_id t =
  if not (Vec.Int.is_empty t.free_ids) then Vec.Int.pop t.free_ids
  else begin
    grow_tables t (t.nsegs + 1);
    t.nsegs <- t.nsegs + 1;
    t.nsegs - 1
  end

(** Acquire a segment for [space] in [generation], of at least [min_words]
    (a standard segment unless the object is oversized). *)
let acquire_segment t ~space ~generation ~min_words =
  if min_words > max_segment_words then
    invalid_arg "object larger than the maximum segment size";
  let std = t.config.segment_words in
  (* Enforce the heap ceiling for the mutator; a running collection is
     exempt (stop-and-copy transiently needs from- and to-space). *)
  if
    (not t.in_collection)
    && t.segment_words_live + max min_words std > t.config.max_heap_words
  then raise Out_of_memory;
  (* Fault injection: a one-shot mutator segment-acquisition failure,
     counted down per acquisition.  Collections stay exempt so a fault
     never strands a half-copied heap. *)
  if (not t.in_collection) && t.faults.fail_segment_alloc_at > 0 then begin
    t.faults.fail_segment_alloc_at <- t.faults.fail_segment_alloc_at - 1;
    if t.faults.fail_segment_alloc_at = 0 then begin
      t.faults.injected <- t.faults.injected + 1;
      raise Out_of_memory
    end
  end;
  let seg =
    if min_words <= std then
      if not (Vec.Int.is_empty t.free_std) then Vec.Int.pop t.free_std
      else begin
        let id = fresh_seg_id t in
        t.segs.(id) <- Array.make std 0;
        id
      end
    else begin
      (* A surviving large object is copied to a new large segment each
         time its generation is collected: reuse the array its last copy
         left, rather than feed the OCaml major heap a new one. *)
      let id = fresh_seg_id t and spare = t.spare_large in
      if Array.length spare = min_words then begin
        t.spare_large <- [||];
        Array.fill spare 0 min_words 0;
        t.segs.(id) <- spare
      end
      else t.segs.(id) <- Array.make min_words 0;
      id
    end
  in
  let si = t.infos.(seg) in
  si.space <- space;
  si.generation <- generation;
  si.used <- 0;
  si.size <- Array.length t.segs.(seg);
  si.live <- true;
  si.condemned <- false;
  si.scan <- 0;
  si.on_dirty_list <- false;
  si.large <- min_words > std;
  let ncards = cards_for t si.size in
  if Bytes.length si.cards < ncards then si.cards <- Bytes.make ncards '\xff'
  else Bytes.fill si.cards 0 ncards '\xff';
  if Array.length si.crossing < ncards then si.crossing <- Array.make ncards 0;
  t.segment_words_live <- t.segment_words_live + si.size;
  Vec.Int.push t.gen_segs.(generation) seg;
  if t.in_collection then begin
    Vec.Int.push t.gc_new_segs seg;
    t.stats.last.segments_allocated <- t.stats.last.segments_allocated + 1
  end;
  seg

let release_segment t seg =
  let si = t.infos.(seg) in
  t.segment_words_live <- t.segment_words_live - si.size;
  si.live <- false;
  si.condemned <- false;
  si.used <- 0;
  si.on_dirty_list <- false;
  t.stats.last.segments_freed <- t.stats.last.segments_freed + 1;
  if si.large then begin
    t.spare_large <- t.segs.(seg);
    t.segs.(seg) <- [||];
    si.large <- false;
    si.size <- 0;
    si.cards <- Bytes.empty;
    si.crossing <- [||];
    Vec.Int.push t.free_ids seg
  end
  else Vec.Int.push t.free_std seg

(** Live segments of [generation]: the heap's own list, exact because a
    segment is only freed after the collector has condemned its whole
    generation and emptied the list. *)
let live_segments_of_gen t generation = t.gen_segs.(generation)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* Crossing map: every card whose first word falls inside the object at
   [off] starts mid-object; record the object's offset so a card scan can
   find the covering header.  The loop body runs only when the object
   crosses a card boundary, so it is O(1) amortized per allocation. *)
let[@inline] note_object t si ~off ~nwords =
  let first_c = (off + (1 lsl t.card_shift) - 1) lsr t.card_shift in
  let last_c = (off + nwords - 1) lsr t.card_shift in
  for c = first_c to last_c do
    si.crossing.(c) <- off
  done

let bump t ~cursors ~space ~generation nwords =
  let idx = Space.to_index space in
  let cur = cursors.(idx) in
  let seg =
    if
      cur.seg >= 0
      &&
      let si = t.infos.(cur.seg) in
      si.live && (not si.condemned) && si.generation = generation
      && si.space = space
      && si.used + nwords <= si.size
    then cur.seg
    else begin
      let s = acquire_segment t ~space ~generation ~min_words:nwords in
      if not t.infos.(s).large then cur.seg <- s;
      s
    end
  in
  let si = t.infos.(seg) in
  let off = si.used in
  si.used <- si.used + nwords;
  note_object t si ~off ~nwords;
  addr_of ~seg ~off

(** Mutator allocation: raw words in generation 0.  The caller initializes
    the words; until then they read as fixnum 0. *)
let alloc t ~space nwords =
  if t.alloc_forbidden then raise Allocation_forbidden;
  t.stats.words_allocated <- t.stats.words_allocated + nwords;
  t.stats.words_allocated_since_gc <- t.stats.words_allocated_since_gc + nwords;
  bump t ~cursors:t.mutator_cursors ~space ~generation:0 nwords

(** Collector allocation into the target generation during a collection. *)
let gc_alloc t ~space ~generation nwords =
  assert t.in_collection;
  bump t ~cursors:t.gc_cursors ~space ~generation nwords

let reset_cursors cursors = Array.iter (fun c -> c.seg <- -1) cursors

(* ------------------------------------------------------------------ *)
(* Remembered set (card-marked dirty segments)                         *)

(** Put [seg] on the dirty list unless it is there already. *)
let remember t seg =
  let si = t.infos.(seg) in
  if not si.on_dirty_list then begin
    si.on_dirty_list <- true;
    Vec.Int.push t.dirty seg
  end

(* Lower the card byte covering [addr] to [gen] and remember the segment.
   [gen < si.generation] must already hold. *)
let mark_card t si ~addr ~gen =
  let c = off_of_addr addr lsr t.card_shift in
  let cur = Bytes.get_uint8 si.cards c in
  let g = if gen > card_clean - 1 then card_clean - 1 else gen in
  if g < cur then begin
    if cur = card_clean then t.stats.cards_dirtied <- t.stats.cards_dirtied + 1;
    Bytes.set_uint8 si.cards c g
  end;
  remember t (seg_of_addr addr)

(** Record (collector-side) that the slot at [addr] references generation
    [gen]: marks the covering card and remembers the segment.  The slot's
    own write must be done by the caller. *)
let note_ref t ~addr ~gen =
  let si = t.infos.(seg_of_addr addr) in
  if gen < si.generation then mark_card t si ~addr ~gen

(** Record that [value] was stored into the object at [addr] — the mutator
    write barrier.  Cheap on the fast paths: non-pointer stores and stores
    into generation-0 segments exit after one or two compares; only an
    old-to-young store (a "hit") touches the card table. *)
let[@inline] note_mutation t ~addr ~value =
  let st = t.stats in
  st.barrier_calls <- st.barrier_calls + 1;
  if Word.is_pointer value then begin
    let si = t.infos.(seg_of_addr addr) in
    if si.generation > 0 then begin
      let vgen = (t.infos.(seg_of_addr (Word.addr value))).generation in
      if vgen < si.generation then begin
        st.barrier_hits <- st.barrier_hits + 1;
        mark_card t si ~addr ~gen:vgen
      end
    end
  end

(** Re-remember [seg] after a card-granular scan if some card is still
    marked. *)
let refresh_remembered t seg =
  let si = t.infos.(seg) in
  let ncards = cards_for t si.used in
  let c = ref 0 in
  while !c < ncards && Bytes.get_uint8 si.cards !c = card_clean do
    incr c
  done;
  if !c < ncards then remember t seg

(** {2 Card introspection} (tests, {!Verify}) *)

let card_min_gen t ~seg ~card = Bytes.get_uint8 (t.infos.(seg)).cards card
let card_of_off t off = off lsr t.card_shift
let cards_in_use t seg = cards_for t (t.infos.(seg)).used
let card_object_start t ~seg ~card = (t.infos.(seg)).crossing.(card)

(* ------------------------------------------------------------------ *)
(* Roots                                                               *)

(** Allocate a global root cell; its content is scanned (and updated) by
    every collection. *)
let new_cell t init =
  match t.global_free with
  | i :: rest ->
      t.global_free <- rest;
      t.global_cells.(i) <- init;
      i
  | [] ->
      if t.global_cells_len = Array.length t.global_cells then begin
        let cells = Array.make (2 * Array.length t.global_cells) Word.nil in
        Array.blit t.global_cells 0 cells 0 t.global_cells_len;
        t.global_cells <- cells
      end;
      let i = t.global_cells_len in
      t.global_cells_len <- t.global_cells_len + 1;
      t.global_cells.(i) <- init;
      i

let[@inline] read_cell t i = t.global_cells.(i)
let[@inline] write_cell t i w = t.global_cells.(i) <- w

let free_cell t i =
  t.global_cells.(i) <- Word.nil;
  t.global_free <- i :: t.global_free

(** Register a root scanner.  During a collection it is called with the
    forwarding function and must apply it to every root word it owns,
    storing back the results.  Returns an id for {!remove_scanner}. *)
let add_scanner t scan =
  let id = t.next_scanner_id in
  t.next_scanner_id <- id + 1;
  t.scanners <- (id, scan) :: t.scanners;
  id

let remove_scanner t id = t.scanners <- List.filter (fun (i, _) -> i <> id) t.scanners

(** Register a weak scanner: called after each collection's weak pass with a
    [lookup] function mapping an old word to its new location, or [None] if
    the object was reclaimed.  Weak scanners do not keep objects alive. *)
let add_weak_scanner t scan =
  let id = t.next_scanner_id in
  t.next_scanner_id <- id + 1;
  t.weak_scanners <- (id, scan) :: t.weak_scanners;
  id

let remove_weak_scanner t id =
  t.weak_scanners <- List.filter (fun (i, _) -> i <> id) t.weak_scanners

let iter_scanners t ~f =
  (* Built-in roots: the global cells. *)
  f (fun rewrite ->
      for i = 0 to t.global_cells_len - 1 do
        t.global_cells.(i) <- rewrite t.global_cells.(i)
      done);
  List.iter (fun (_, scan) -> f scan) t.scanners

let iter_weak_scanners t ~f = List.iter (fun (_, scan) -> f scan) t.weak_scanners

(** Run [f] with a temporary root cell holding [w]; returns [f cell_id].
    Convenient for library code that must keep a value alive across a
    potential safepoint. *)
let with_cell t w f =
  let c = new_cell t w in
  Fun.protect ~finally:(fun () -> free_cell t c) (fun () -> f c)

(* ------------------------------------------------------------------ *)
(* Protected lists (guardian registrations)                            *)

let protected_push p ~gid ~obj ~rep ~tconc =
  Vec.Int.push p.p_objs obj;
  Vec.Int.push p.p_reps rep;
  Vec.Int.push p.p_tconcs tconc;
  Vec.Int.push p.p_gids gid

let protected_clear p =
  Vec.Int.clear p.p_objs;
  Vec.Int.clear p.p_reps;
  Vec.Int.clear p.p_tconcs;
  Vec.Int.clear p.p_gids

let protected_add_gen t ~generation ~gid ~obj ~rep ~tconc =
  protected_push t.protected.(generation) ~gid ~obj ~rep ~tconc

(** Register [obj] with the guardian whose tconc is [tconc]: a new entry is
    added to the protected list for generation 0, exactly as in the paper.
    [rep] is what the collector will enqueue when [obj] proves
    inaccessible. *)
let protected_add t ~gid ~obj ~rep ~tconc =
  protected_add_gen t ~generation:0 ~gid ~obj ~rep ~tconc;
  t.stats.registrations <- t.stats.registrations + 1;
  Telemetry.record_registration t.telemetry ~gid

let protected_length t generation =
  Vec.Int.length t.protected.(generation).p_objs

(* ------------------------------------------------------------------ *)
(* Post-GC hooks                                                       *)

let add_post_gc_hook t hook =
  let id = t.next_scanner_id in
  t.next_scanner_id <- id + 1;
  t.post_gc_hooks <- (id, hook) :: t.post_gc_hooks;
  id

let remove_post_gc_hook t id =
  t.post_gc_hooks <- List.filter (fun (i, _) -> i <> id) t.post_gc_hooks

let run_post_gc_hooks t = List.iter (fun (_, h) -> h t) t.post_gc_hooks

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let live_words t =
  let total = ref 0 in
  for seg = 0 to t.nsegs - 1 do
    let si = t.infos.(seg) in
    if si.live then total := !total + si.used
  done;
  !total

let live_segments t =
  let total = ref 0 in
  for seg = 0 to t.nsegs - 1 do
    if t.infos.(seg).live then incr total
  done;
  !total
