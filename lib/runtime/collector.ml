(** The generation-based stop-and-copy collector, with the paper's guardian
    and weak-pair passes.

    A collection of generation [g] collects generations [0..g] (younger
    generations are always collected along with older ones) into the target
    generation [min (g + 1) max_generation], the paper's promotion ladder.
    Phases:

    + condemn the segments of generations [0..g];
    + forward the roots (global cells + registered scanners) and sweep the
      dirty segments of older generations (the remembered set);
    + Cheney-sweep to-space to a fixpoint ([kleene-sweep] in the paper);
    + the {b guardian pass} (paper Section 4): partition the protected
      entries of the collected generations into [pend-hold-list]
      (object still accessible) and [pend-final-list] (object proven
      inaccessible), then repeatedly move entries whose tconc is accessible
      from [pend-final-list] into their guardian's queue — forwarding, i.e.
      {e saving}, the object — and re-sweep, until no progress: this handles
      guardians registered with guardians; finally promote surviving
      [pend-hold-list] entries to the target generation's protected list and
      drop entries whose guardian itself died;
    + the {b weak pass}: mend or break the car fields of weak pairs — after
      the guardian pass, so a weak pointer to an object saved by a guardian
      is {e not} broken;
    + run registered weak scanners (support for baseline mechanisms);
    + free the condemned segments.

    One sweep ([sweep]) serves both the Cheney scan and the dirty-card scan
    of the remembered set; the only difference is the offset its object
    walk starts from.  One test ([forwarded]/[forward_address]) answers
    "has this object survived" for every pass.

    The collector does no allocation except copies and the fresh tconc cells
    it appends (which go straight to the target generation). *)

open Heap

type outcome = {
  generation : int;  (** oldest generation collected *)
  target : int;
  duration_ns : float;
}

(* ------------------------------------------------------------------ *)
(* Forwarding                                                          *)

(* A copied object's first word is overwritten with the forwarding marker
   and its second word with the (tagged) new pointer word.  The smallest
   object is a pair (two words), so the two slots always exist. *)

let forwarded t w =
  (not (Word.is_pointer w))
  || (not (info_of_word t w).condemned)
  || Word.equal (load t (Word.addr w)) Word.forward_marker

(** Forwarding address of [w], or [w] itself if it was never copied (older
    generation, immediate).  Only meaningful when [forwarded t w]. *)
let forward_address t w =
  if (not (Word.is_pointer w)) || not (info_of_word t w).condemned then w
  else begin
    assert (Word.equal (load t (Word.addr w)) Word.forward_marker);
    load t (Word.addr w + 1)
  end

(* Copy the from-space object [w] (a pointer into the condemned segment
   whose info is [si]) to the target generation unless it was copied
   already; returns the new word. *)
let copy_condemned t ~target si w =
  let addr = Word.addr w in
  let src = t.segs.(seg_of_addr addr) and off = off_of_addr addr in
  if Word.equal src.(off) Word.forward_marker then src.(off + 1)
  else begin
    let stats = (Heap.stats t).last in
    let pair = Word.is_pair_ptr w in
    let size = if pair then 2 else 1 + Obj.header_len src.(off) in
    (* Zero-field objects are padded to two words so the forwarding
       marker and address always fit (see Obj.code_pad). *)
    let new_addr = gc_alloc t ~space:si.space ~generation:target (max size 2) in
    let dst = t.segs.(seg_of_addr new_addr) and doff = off_of_addr new_addr in
    if pair then begin
      dst.(doff) <- src.(off);
      dst.(doff + 1) <- src.(off + 1)
    end
    else begin
      Array.blit src off dst doff size;
      if size = 1 then dst.(doff + 1) <- Obj.header ~len:0 ~code:Obj.code_pad
    end;
    stats.words_copied <- stats.words_copied + size;
    stats.objects_copied <- stats.objects_copied + 1;
    (* Seeded debug bug (Heap.faults.corrupt_forward_period): corrupt every
       nth forwarding address to an interior pointer.  The torture
       harness must detect the damage via Verify or the oracle. *)
    let new_word = Word.with_addr w new_addr in
    let new_word =
      let f = t.faults in
      if f.corrupt_forward_period = 0 then new_word
      else begin
        f.forwards_seen <- f.forwards_seen + 1;
        if f.forwards_seen mod f.corrupt_forward_period = 0 then begin
          f.injected <- f.injected + 1;
          Word.with_addr new_word (new_addr + 1)
        end
        else new_word
      end
    in
    src.(off) <- Word.forward_marker;
    src.(off + 1) <- new_word;
    (* Guardian-fixpoint worklist feed: each object forwards once, so
       the log sees each from-space address at most once. *)
    if t.gc_log_forwards then Vec.Int.push t.gc_forward_log addr;
    new_word
  end

(** Copy [w] to the target generation if it is a pointer into from-space not
    yet copied; returns the new word. *)
let copy t ~target w =
  if not (Word.is_pointer w) then w
  else
    let si = info_of_word t w in
    if si.condemned then copy_condemned t ~target si w else w

(* ------------------------------------------------------------------ *)
(* Sweeping                                                            *)

(* The one sweep, shared by the Cheney scan and the dirty-card scan: sweep
   the words of [seg] in [from, upto) as strong references, copying each
   traced slot's from-space target and noting the referenced generations
   in the card table (which remembers the segment).  A slot is written
   back only when its target moved; immediates are skipped outright.
   Weak-space segments trace only cdr fields.  [start] is where the
   typed-space object walk begins: [from] itself for the Cheney scan, and
   for a dirty card the crossing-map header of the object covering the
   card's first word — typed objects can straddle card boundaries, so
   traced fields are clamped to [from, upto). *)
let sweep t ~target seg ~start ~from ~upto =
  let si = info t seg in
  let words = t.segs.(seg) and gen = si.generation in
  let stats = (Heap.stats t).last in
  let fwd off =
    let w = words.(off) in
    if Word.is_pointer w then begin
      let wsi = info_of_word t w in
      (* A copy lives in the target generation. *)
      if wsi.condemned then begin
        words.(off) <- copy_condemned t ~target wsi w;
        if target < gen then mark_card t si ~addr:(addr_of ~seg ~off) ~gen:target
      end
      else if wsi.generation < gen then
        mark_card t si ~addr:(addr_of ~seg ~off) ~gen:wsi.generation
    end
  in
  (* Cards are >= 8 words and a power of two: two-word cells never
     straddle, so the cell spaces walk from [from]. *)
  (match si.space with
  | Space.Pair ->
      let off = ref from in
      while !off < upto do
        fwd !off;
        fwd (!off + 1);
        off := !off + 2
      done
  | Space.Weak ->
      let off = ref from in
      while !off < upto do
        (* car is weak: left alone here, handled by the weak pass. *)
        fwd (!off + 1);
        off := !off + 2
      done
  | Space.Ephemeron ->
      (* Neither field is traced eagerly: the value may only be traced once
         the key proves reachable.  Queue the cell for the ephemeron
         fixpoint. *)
      let off = ref from in
      while !off < upto do
        Vec.Int.push t.gc_ephemerons (addr_of ~seg ~off:!off);
        off := !off + 2
      done
  | Space.Typed ->
      let off = ref start in
      while !off < upto do
        let len = Obj.header_len words.(!off) in
        for i = max (!off + 1) from to min (!off + len) (upto - 1) do
          fwd i
        done;
        off := !off + 1 + len
      done
  | Space.Data -> ());
  stats.words_swept <- stats.words_swept + (upto - from)

(* One round of the ephemeron fixpoint: resolve every queued ephemeron
   whose key has proven reachable, tracing its value; keep the rest queued.
   Returns whether anything was resolved. *)
let process_ephemerons t ~target =
  let pending = t.gc_ephemerons in
  let n = Vec.Int.length pending in
  let stats = (Heap.stats t).last in
  let write = ref 0 in
  let progress = ref false in
  for i = 0 to n - 1 do
    let addr = Vec.Int.get pending i in
    let key = load t addr in
    if forwarded t key then begin
      progress := true;
      stats.ephemerons_scanned <- stats.ephemerons_scanned + 1;
      let key' = forward_address t key in
      store t addr key';
      (* The key is reachable: the value is strong after all. *)
      let v = copy t ~target (load t (addr + 1)) in
      store t (addr + 1) v;
      note_ref t ~addr ~gen:(generation_of_word t key');
      note_ref t ~addr:(addr + 1) ~gen:(generation_of_word t v)
    end
    else begin
      Vec.Int.set pending !write addr;
      incr write
    end
  done;
  Vec.Int.truncate pending !write;
  !progress

(* Break the ephemerons whose keys never proved reachable: key and value
   both become #f.  Runs after the guardian pass (a guardian-saved key is a
   reachable key). *)
let break_ephemerons t =
  let stats = (Heap.stats t).last in
  Vec.Int.iter t.gc_ephemerons ~f:(fun addr ->
      stats.ephemerons_scanned <- stats.ephemerons_scanned + 1;
      stats.ephemerons_broken <- stats.ephemerons_broken + 1;
      store t addr Word.false_;
      store t (addr + 1) Word.false_);
  Vec.Int.clear t.gc_ephemerons

(* Cheney scan to a fixpoint: process every to-space segment's unscanned
   suffix until no segment has one, interleaved with the ephemeron
   fixpoint (a value traced because its key proved reachable can itself
   reveal further reachable keys).  Copies performed while sweeping extend
   [used] (possibly of other segments), hence the outer loop. *)
let kleene_sweep t ~target =
  let progress = ref true in
  while !progress do
    progress := false;
    (* gc_new_segs can grow while we iterate: index-based loop. *)
    let i = ref 0 in
    while !i < Vec.Int.length t.gc_new_segs do
      let seg = Vec.Int.get t.gc_new_segs !i in
      let si = info t seg in
      while si.live && si.scan < si.used do
        progress := true;
        let upto = si.used in
        sweep t ~target seg ~start:si.scan ~from:si.scan ~upto;
        si.scan <- upto
      done;
      incr i
    done;
    if process_ephemerons t ~target then progress := true
  done

(* ------------------------------------------------------------------ *)
(* Guardian pass                                                       *)

let guardian_pass t ~g ~target =
  let stats = (Heap.stats t).last in
  let hold = t.gc_hold and final = t.gc_final and work = t.gc_work in
  protected_clear hold;
  protected_clear final;
  Vec.Int.clear work;
  (* First block: separate accessible from inaccessible registered objects
     into [hold] and [final] (the paper's pend-hold-list and
     pend-final-list).  The protected lists themselves are collector
     metadata and are not forwarded.  For held entries the rep (agent) is
     kept alive here.  Both buffers are walked from their last index to
     their first below: the paper's lists are built by consing. *)
  for i = 0 to g do
    let p = t.protected.(i) in
    for j = 0 to Vec.Int.length p.p_objs - 1 do
      stats.protected_entries_visited <- stats.protected_entries_visited + 1;
      let obj = Vec.Int.get p.p_objs j and rep = Vec.Int.get p.p_reps j in
      let tconc = Vec.Int.get p.p_tconcs j and gid = Vec.Int.get p.p_gids j in
      if forwarded t obj then
        protected_push hold ~gid ~obj ~rep:(copy t ~target rep) ~tconc
      else protected_push final ~gid ~obj ~rep ~tconc
    done;
    protected_clear p
  done;
  kleene_sweep t ~target;
  (* Second block: queue inaccessible objects whose guardian is
     accessible.  Forwarding the saved representatives can make further
     guardians accessible (a guardian registered with a guardian), so
     instead of repeatedly re-partitioning [final], entries whose tconc is
     still in from-space wait in a table keyed by the tconc's address, and
     every object forwarded while the fixpoint runs is logged
     ([gc_forward_log]); draining the log wakes exactly the waiters of the
     addresses that forwarded.  Each entry is checked at most twice — at
     partition and when its tconc forwards — so the fixpoint costs O(1)
     amortized per entry, proportional to the entries actually saved.
     The table exists only when some entry waits. *)
  let waiters = ref None in
  for i = Vec.Int.length final.p_objs - 1 downto 0 do
    stats.guardian_pend_checks <- stats.guardian_pend_checks + 1;
    let tconc = Vec.Int.get final.p_tconcs i in
    if forwarded t tconc then Vec.Int.push work i
    else begin
      if Option.is_none !waiters then waiters := Some (Hashtbl.create 16);
      let tbl = Option.get !waiters and key = Word.addr tconc in
      Hashtbl.replace tbl key (i :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
    end
  done;
  let alloc_pair a d =
    let addr = gc_alloc t ~space:Space.Pair ~generation:target 2 in
    store t addr a;
    store t (addr + 1) d;
    Word.pair_ptr addr
  in
  (* No cleanup on exceptions: a collection that raises poisons the heap,
     which never collects again (see [collect]). *)
  t.gc_log_forwards <- Option.is_some !waiters;
  Vec.Int.clear t.gc_forward_log;
  while not (Vec.Int.is_empty work) do
    for k = 0 to Vec.Int.length work - 1 do
      let i = Vec.Int.get work k in
      let rep = copy t ~target (Vec.Int.get final.p_reps i) in
      let tc = forward_address t (Vec.Int.get final.p_tconcs i) in
      Tconc.enqueue_with t ~alloc_pair tc rep;
      stats.guardian_resurrections <- stats.guardian_resurrections + 1;
      (* Latency bookkeeping: the entry becomes retrievable at the epoch
         following this collection. *)
      Telemetry.record_resurrection t.telemetry ~gid:(Vec.Int.get final.p_gids i)
        ~epoch:(t.gc_epoch + 1)
    done;
    Vec.Int.clear work;
    kleene_sweep t ~target;
    (* Tconcs forwarded by the saves above release their waiters. *)
    Option.iter
      (fun tbl ->
        Vec.Int.iter t.gc_forward_log ~f:(fun addr ->
            match Hashtbl.find_opt tbl addr with
            | Some is ->
                Hashtbl.remove tbl addr;
                List.iter
                  (fun i ->
                    stats.guardian_pend_checks <- stats.guardian_pend_checks + 1;
                    Vec.Int.push work i)
                  (List.rev is)
            | None -> ()))
      !waiters;
    Vec.Int.clear t.gc_forward_log
  done;
  t.gc_log_forwards <- false;
  let drop gid =
    stats.guardian_entries_dropped <- stats.guardian_entries_dropped + 1;
    Telemetry.record_drop t.telemetry ~gid
  in
  (* Entries still waiting: their guardian itself died. *)
  Option.iter
    (Hashtbl.iter (fun _ is -> List.iter (fun i -> drop (Vec.Int.get final.p_gids i)) is))
    !waiters;
  (* Third block: entries whose object is still accessible survive into the
     target generation's protected list — provided their guardian does. *)
  let entry_generation =
    (* D1 ablation: a non-generation-friendly collector keeps every entry
       on generation 0's protected list, forcing every minor collection to
       visit all of them. *)
    if (Heap.config t).Config.generation_friendly_guardians then target else 0
  in
  for i = Vec.Int.length hold.p_objs - 1 downto 0 do
    let tconc = Vec.Int.get hold.p_tconcs i and gid = Vec.Int.get hold.p_gids i in
    if forwarded t tconc then begin
      protected_add_gen t ~generation:entry_generation ~gid
        ~obj:(forward_address t (Vec.Int.get hold.p_objs i))
        ~rep:(forward_address t (Vec.Int.get hold.p_reps i))
        ~tconc:(forward_address t tconc);
      stats.guardian_entries_promoted <- stats.guardian_entries_promoted + 1
    end
    else drop gid
  done

(* ------------------------------------------------------------------ *)
(* Weak pass                                                           *)

(* Mend or break the car of the weak pair at [addr] (car slot).  Runs after
   the guardian pass, so guarded-saved objects have forwarding addresses and
   their weak pointers survive. *)
let process_weak_car t addr =
  let stats = (Heap.stats t).last in
  stats.weak_pairs_scanned <- stats.weak_pairs_scanned + 1;
  let w = load t addr in
  if forwarded t w then begin
    let w' = forward_address t w in
    store t addr w';
    note_ref t ~addr ~gen:(generation_of_word t w')
  end
  else begin
    store t addr Word.false_;
    stats.weak_pointers_broken <- stats.weak_pointers_broken + 1
  end

let weak_pass t ~dirty_weak_cards =
  let scan_range seg ~from ~upto =
    let off = ref from in
    while !off < upto do
      process_weak_car t (addr_of ~seg ~off:!off);
      off := !off + 2
    done;
    refresh_remembered t seg
  in
  (* Weak pairs copied during this collection... *)
  Vec.Int.iter t.gc_new_segs ~f:(fun seg ->
      let si = info t seg in
      if si.live && si.space = Space.Weak then scan_range seg ~from:0 ~upto:si.used);
  (* ...and weak pairs in the dirty cards of older weak segments: their
     cdrs were swept by the dirty scan, which reset the card bytes; the
     cars are mended or broken here and their targets re-noted. *)
  List.iter (fun (seg, from, upto) -> scan_range seg ~from ~upto) dirty_weak_cards

(* ------------------------------------------------------------------ *)
(* Dirty (remembered-set) scan                                         *)

(* Sweep the remembered segments of generations older than [g] as roots —
   card-granularly: only cards recorded as possibly reaching into the
   condemned generations are visited; each is reset and its references
   re-noted from scratch by the sweep, which re-remembers the segment if
   one still reaches a younger generation.  Returns the dirty weak-space
   card ranges, whose car fields still need the weak pass.  Rebuilds the
   dirty list. *)
let dirty_scan t ~g ~target =
  let stats = (Heap.stats t).last in
  let old_dirty = Vec.Int.to_list t.dirty in
  Vec.Int.clear t.dirty;
  let weak_cards = ref [] in
  let cw = 1 lsl t.card_shift in
  List.iter
    (fun seg ->
      let si = info t seg in
      si.on_dirty_list <- false;
      if si.live && not si.condemned then begin
        let cards_before = stats.cards_scanned and marked = ref false in
        for c = 0 to cards_in_use t seg - 1 do
          let b = Bytes.get_uint8 si.cards c in
          if b <= g then begin
            stats.cards_scanned <- stats.cards_scanned + 1;
            Bytes.set_uint8 si.cards c card_clean;
            let from = c * cw in
            let upto = min si.used (from + cw) in
            stats.card_words_swept <- stats.card_words_swept + (upto - from);
            sweep t ~target seg ~from ~upto ~start:(card_object_start t ~seg ~card:c);
            if si.space = Space.Weak then weak_cards := (seg, from, upto) :: !weak_cards
          end
          else if b <> card_clean then marked := true
        done;
        if stats.cards_scanned > cards_before then begin
          stats.dirty_segments_scanned <- stats.dirty_segments_scanned + 1;
          stats.dirty_candidate_words <- stats.dirty_candidate_words + si.used
        end;
        (* Cards dirty only with respect to generations not being collected
           keep the segment remembered without being scanned: the "no
           additional overhead for older objects" property.  A segment left
           with no marked card leaves the list. *)
        if !marked then remember t seg
      end)
    old_dirty;
  !weak_cards

(* ------------------------------------------------------------------ *)
(* Root scan                                                           *)

let root_scan t ~target =
  let stats = (Heap.stats t).last in
  iter_scanners t ~f:(fun scan ->
      scan (fun w ->
          stats.root_words <- stats.root_words + 1;
          copy t ~target w))

let weak_root_scan t =
  let lookup w = if forwarded t w then Some (forward_address t w) else None in
  iter_weak_scanners t ~f:(fun scan -> scan lookup)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

(* The phases of a collection of generations [0..g], run with
   [in_collection] set. *)
let collect_generations ?weak_pass_first t ~g ~target =
  let stats = (Heap.stats t).last in
  (* Each phase reports the delta of its work counter, so the attribution
     is exact even for counters several phases bump (e.g. words_swept). *)
  let phase ph body =
    let work = Telemetry.phase_work ph in
    let before = work stats in
    Telemetry.phase_begin t.telemetry ph;
    let r = body () in
    Telemetry.phase_end t.telemetry ph ~work:(work stats - before);
    r
  in
  Vec.Int.clear t.gc_new_segs;
  Vec.Int.clear t.gc_ephemerons;
  (* Condemn from-space: all segments of generations 0..g.  Their lists
     are emptied here, before the first copy can acquire a segment, so a
     list never names a segment freed below. *)
  let condemned = Vec.Int.create () in
  for i = 0 to g do
    let segs = t.gen_segs.(i) in
    Vec.Int.iter segs ~f:(fun seg ->
        (info t seg).condemned <- true;
        Vec.Int.push condemned seg);
    Vec.Int.clear segs
  done;
  (* Only segments acquired during this collection are Cheney-swept (fresh
     segments start with scan = 0); pre-existing target segments keep their
     contents and are reached, if at all, through the remembered set. *)
  reset_cursors t.gc_cursors;
  (* Roots, remembered set, transitive copy. *)
  phase Telemetry.Root_scan (fun () -> root_scan t ~target);
  let dirty_weak_cards =
    phase Telemetry.Dirty_scan (fun () -> dirty_scan t ~g ~target)
  in
  phase Telemetry.Cheney_copy (fun () -> kleene_sweep t ~target);
  let guardian_phases () =
    phase Telemetry.Guardian_pass (fun () -> guardian_pass t ~g ~target);
    phase Telemetry.Ephemeron_fixpoint (fun () -> break_ephemerons t)
  in
  let weak_phase () =
    phase Telemetry.Weak_pass (fun () -> weak_pass t ~dirty_weak_cards)
  in
  (* Guardian pass, then weak pass — in that order, so that weak pointers to
     objects saved by guardians survive (paper Section 4).  The switchable
     order exists only to demonstrate the breakage in tests (DESIGN.md D2). *)
  if weak_pass_first = Some true then (weak_phase (); guardian_phases ())
  else (guardian_phases (); weak_phase ());
  phase Telemetry.Segment_reclaim (fun () ->
      (* Baseline support: weak scanners observe forwarding before from-space
         is reclaimed. *)
      weak_root_scan t;
      (* Reclaim from-space. *)
      Vec.Int.iter condemned ~f:(fun seg -> release_segment t seg);
      reset_cursors t.mutator_cursors)

let collect ?weak_pass_first t ~gen:g =
  check_poisoned t;
  if t.in_collection then invalid_arg "Collector.collect: already collecting";
  let cfg = Heap.config t in
  if g < 0 || g > cfg.max_generation then invalid_arg "Collector.collect: bad generation";
  let t0 = Unix_time.now_ns () in
  let tel = t.telemetry in
  let target = min (g + 1) cfg.max_generation in
  t.in_collection <- true;
  Stats.begin_collection (Heap.stats t);
  t.stats.last.collections <- 1;
  Telemetry.collection_begin tel
    ~ordinal:((Heap.stats t).total.Stats.collections + 1)
    ~generation:g ~target;
  (* An exception out of a phase (a raising scanner, say) leaves the heap
     half-collected.  Poison it, so that later collections, safepoints and
     image saves fail loudly instead of finding [in_collection] stuck. *)
  (try collect_generations ?weak_pass_first t ~g ~target
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Heap.poison t (Printexc.to_string e);
     Printexc.raise_with_backtrace e bt);
  t.stats.words_allocated_since_gc <- 0;
  (* Volume schedule input: the collected generations start empty, and the
     target counts what this collection promoted into it.  Survivors of
     the oldest generation, copied into itself, are not promotion. *)
  Array.fill t.promoted_words 0 (g + 1) 0;
  if target > g then
    t.promoted_words.(target) <- t.promoted_words.(target) + t.stats.last.words_copied;
  t.gc_epoch <- t.gc_epoch + 1;
  t.last_gc_generation <- g;
  Stats.end_collection (Heap.stats t);
  t.in_collection <- false;
  (* The counter snapshot and live-word census are only paid for when
     someone is listening. *)
  if Telemetry.enabled tel then
    Telemetry.collection_end tel ~stats:(Heap.stats t) ~live_words:(live_words t);
  run_post_gc_hooks t;
  { generation = g; target; duration_ns = Unix_time.now_ns () -. t0 }
