(** [gbc-image/1]: versioned, CRC-checked heap images.

    See the interface for the contract.  Layout (all integers
    little-endian; heap words as 64-bit two's complement):

    {v
      "GBCIMG01"              8-byte magic
      u32  format version     (1)
      u64  payload length
      payload                 (sections below)
      u32  CRC-32 of payload  (IEEE 802.3, poly 0xEDB88320)
    v}

    Payload sections, in order:

    + geometry and schedule scalars: [stride_bits], [segment_words],
      [max_generation], [card_words], then [gc_epoch], the promoted
      words of generations [1..max_generation], [last_gc_generation],
      [words_allocated_since_gc] (i64) and the guardian-id count (u32);
    + the segment table: per live segment, space (u8), generation (u32),
      used (u32), size (u32), large flag (u8) — segments renumbered
      [0..n-1] in ascending id order (the {e image numbering});
    + segment contents: [used] words each, pointers rewritten into the
      image numbering (Data-space words are copied raw: string bodies and
      flonum bit patterns must not be mistaken for pointers);
    + the per-space mutator cursors (i64 image index, -1 for none);
    + the global root cells (count, words, then the free list in order);
    + the per-generation protected lists (obj/rep/tconc words + u32 gid);
    + the symbol section (count, then name + word, sorted by name);
    + named extras (count, then name + word array + opaque bytes).

    Cards, the crossing map and the dirty list are {e not} stored.  The
    loader walks each segment once: it copies the words, checks every
    pointer's target, re-derives the remembered set exactly with
    {!Heap.note_ref} and replays {!Heap.note_object} per object.  The
    rebuilt cards are the precise minimum, which {!Verify}'s
    remembered-set invariant accepts (stale-dirty cards in the saved heap
    were a scanning overapproximation, never roots), so a verified load
    checks every slot but not the cards it derived itself. *)

open Gbc_runtime

exception Error of string

type extra = { xwords : Word.t array; xbytes : string }

type loaded = {
  heap : Heap.t;
  symbols : (string * Word.t) list;
  extras : (string * extra) list;
  image_bytes : int;
  restored_words : int;
  restored_segments : int;
}

let magic = "GBCIMG01"
let format_version = 1

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

(* Both paths live in crc32_stubs.c and never allocate; the bounds check
   stays here and raises what the stdlib's string accessors raise. *)
external crc32_init : unit -> unit = "gbc_crc32_init" [@@noalloc]
external crc32_kernel : string -> int -> int -> int = "gbc_crc32" [@@noalloc]
external crc32_table : string -> int -> int -> int = "gbc_crc32_portable" [@@noalloc]
let () = crc32_init ()

let[@inline] checked f s ~pos ~len =
  if len > 0 && (pos < 0 || pos > String.length s - len) then invalid_arg "index out of bounds";
  f s pos len

let crc32 s ~pos ~len = checked crc32_kernel s ~pos ~len
let crc32_portable s ~pos ~len = checked crc32_table s ~pos ~len

(* ------------------------------------------------------------------ *)
(* Little-endian primitives                                            *)

let u8 b v = Buffer.add_uint8 b v
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let str b s =
  u32 b (String.length s);
  Buffer.add_string b s

type reader = { buf : string; mutable pos : int; limit : int; truncated : string }

let reader ~truncated buf ~pos ~limit = { buf; pos; limit; truncated }
let remaining r = r.limit - r.pos

let need r n =
  if n < 0 || r.pos + n > r.limit then raise (Error ("gbc-image: " ^ r.truncated))

let ru8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let ri64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let rstr r =
  let n = ru32 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let save_string ?(symbols = []) ?(extras = []) (h : Heap.t) =
  Heap.check_poisoned h;
  if h.Heap.in_collection then
    raise (Error "gbc-image: cannot save during a collection");
  if h.Heap.alloc_forbidden then
    raise (Error "gbc-image: cannot save from inside a finalization thunk");
  let tel = Heap.telemetry h in
  Telemetry.phase_begin tel Telemetry.Image_save;
  let cfg = Heap.config h in
  let nsegs = h.Heap.nsegs in
  (* Canonical image numbering: live segments 0..n-1 in ascending id
     order.  A freshly loaded heap has exactly ids 0..n-1 live, so
     save -> load -> save reproduces identical bytes. *)
  let imap = Array.make (max 1 nsegs) (-1) in
  let nlive = ref 0 in
  for seg = 0 to nsegs - 1 do
    if h.Heap.infos.(seg).Heap.live then begin
      imap.(seg) <- !nlive;
      incr nlive
    end
  done;
  let live = Array.make (max 1 !nlive) 0 in
  for seg = 0 to nsegs - 1 do
    if imap.(seg) >= 0 then live.(imap.(seg)) <- seg
  done;
  (* One relocation for segment slots and roots alike: a pointer's target
     must lie inside a live segment's used words. *)
  let[@inline] reloc w =
    if not (Word.is_pointer w) then w
    else begin
      let a = Word.addr w in
      let seg = Heap.seg_of_addr a in
      if seg < 0 || seg >= nsegs || imap.(seg) < 0 then
        raise (Error "gbc-image: save: pointer into a dead segment");
      let off = Heap.off_of_addr a in
      if off >= h.Heap.infos.(seg).Heap.used then
        raise (Error "gbc-image: save: pointer past a segment's used words");
      Word.with_addr w (Heap.addr_of ~seg:imap.(seg) ~off)
    end
  in
  (* The frame is sized exactly up front and written in place; the
     payload length and the CRC are patched in at the end. *)
  let total_words = ref 0 in
  for i = 0 to !nlive - 1 do
    total_words := !total_words + h.Heap.infos.(live.(i)).Heap.used
  done;
  let symbols = List.sort (fun (a, _) (b, _) -> String.compare a b) symbols in
  let sum f l = List.fold_left (fun n x -> n + f x) 0 l in
  let size =
    (20 + 44 + (8 * cfg.Config.max_generation) + 4)
    (* frame header; geometry and schedule; segment count *)
    + (14 * !nlive) + (8 * !total_words) + (8 * Space.count)
    + (4 + (8 * h.Heap.global_cells_len)) + (4 + (4 * List.length h.Heap.global_free))
    + Array.fold_left
        (fun n pr -> n + 4 + (28 * Vec.Int.length pr.Heap.p_objs)) 0 h.Heap.protected
    + (4 + sum (fun (name, _) -> 4 + String.length name + 8) symbols)
    + 4
    + sum
        (fun (name, x) ->
          12 + String.length name + (8 * Array.length x.xwords) + String.length x.xbytes)
        extras
    + 4 (* CRC *)
  in
  let b = Bytes.create size and p = ref 0 in
  let[@inline] w8 v = Bytes.set_uint8 b !p v; p := !p + 1 in
  let[@inline] w32 v = Bytes.set_int32_le b !p (Int32.of_int v); p := !p + 4 in
  let[@inline] w64 v = Bytes.set_int64_le b !p (Int64.of_int v); p := !p + 8 in
  let wstr s =
    w32 (String.length s);
    Bytes.blit_string s 0 b !p (String.length s);
    p := !p + String.length s
  in
  Bytes.blit_string magic 0 b 0 8;
  p := 8;
  w32 format_version;
  w64 0;
  w32 Heap.stride_bits;
  w32 cfg.Config.segment_words;
  w32 cfg.Config.max_generation;
  w32 cfg.Config.card_words;
  w64 h.Heap.gc_epoch;
  for g = 1 to cfg.Config.max_generation do
    w64 h.Heap.promoted_words.(g)
  done;
  w64 h.Heap.last_gc_generation;
  w64 (Heap.stats h).Stats.words_allocated_since_gc;
  w32 (Telemetry.guardian_count tel);
  w32 !nlive;
  for i = 0 to !nlive - 1 do
    let si = h.Heap.infos.(live.(i)) in
    w8 (Space.to_index si.Heap.space);
    w32 si.Heap.generation;
    w32 si.Heap.used;
    w32 si.Heap.size;
    w8 (if si.Heap.large then 1 else 0)
  done;
  for i = 0 to !nlive - 1 do
    let seg = live.(i) in
    let si = h.Heap.infos.(seg) in
    let arr = h.Heap.segs.(seg) in
    let base = !p in
    if si.Heap.space = Space.Data then
      (* No pointers by construction, and raw payloads (flonum bit
         patterns) may alias pointer tags: copy verbatim. *)
      for off = 0 to si.Heap.used - 1 do
        Bytes.set_int64_le b (base + (8 * off)) (Int64.of_int arr.(off))
      done
    else
      for off = 0 to si.Heap.used - 1 do
        Bytes.set_int64_le b (base + (8 * off)) (Int64.of_int (reloc arr.(off)))
      done;
    p := base + (8 * si.Heap.used)
  done;
  for k = 0 to Space.count - 1 do
    let cur = h.Heap.mutator_cursors.(k).Heap.seg in
    w64 (if cur >= 0 && imap.(cur) >= 0 then imap.(cur) else -1)
  done;
  w32 h.Heap.global_cells_len;
  for i = 0 to h.Heap.global_cells_len - 1 do
    w64 (reloc h.Heap.global_cells.(i))
  done;
  w32 (List.length h.Heap.global_free);
  List.iter w32 h.Heap.global_free;
  for g = 0 to cfg.Config.max_generation do
    let pr = h.Heap.protected.(g) in
    let n = Vec.Int.length pr.Heap.p_objs in
    w32 n;
    for i = 0 to n - 1 do
      w64 (reloc (Vec.Int.get pr.Heap.p_objs i));
      w64 (reloc (Vec.Int.get pr.Heap.p_reps i));
      w64 (reloc (Vec.Int.get pr.Heap.p_tconcs i));
      w32 (Vec.Int.get pr.Heap.p_gids i)
    done
  done;
  w32 (List.length symbols);
  List.iter
    (fun (name, w) ->
      wstr name;
      w64 (reloc w))
    symbols;
  w32 (List.length extras);
  List.iter
    (fun (name, x) ->
      wstr name;
      w32 (Array.length x.xwords);
      Array.iter (fun w -> w64 (reloc w)) x.xwords;
      wstr x.xbytes)
    extras;
  let plen = !p - 20 in
  assert (20 + plen + 4 = size);
  Bytes.set_int64_le b 12 (Int64.of_int plen);
  let crc = crc32 (Bytes.unsafe_to_string b) ~pos:20 ~len:plen in
  Bytes.set_int32_le b (20 + plen) (Int32.of_int crc);
  let s = Bytes.unsafe_to_string b in
  Telemetry.phase_end tel Telemetry.Image_save ~work:!total_words;
  let st = Heap.stats h in
  st.Stats.image_saves <- st.Stats.image_saves + 1;
  st.Stats.image_bytes_written <- st.Stats.image_bytes_written + size;
  st.Stats.image_words_written <- st.Stats.image_words_written + !total_words;
  s

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

let load_string ?config s =
  let total = String.length s in
  (* magic + version + payload length + CRC is the minimum frame. *)
  if total < 24 then raise (Error "gbc-image: truncated image");
  if not (String.equal (String.sub s 0 8) magic) then
    raise (Error "gbc-image: not a heap image (bad magic)");
  let ver = Int32.to_int (String.get_int32_le s 8) land 0xFFFFFFFF in
  if ver <> format_version then
    raise
      (Error
         (Printf.sprintf
            "gbc-image: unsupported image version %d (this build reads \
             version %d)"
            ver format_version));
  let plen = Int64.to_int (String.get_int64_le s 12) in
  if plen < 0 || total <> 24 + plen then
    raise (Error "gbc-image: truncated image");
  let stored = Int32.to_int (String.get_int32_le s (20 + plen)) land 0xFFFFFFFF in
  if crc32 s ~pos:20 ~len:plen <> stored then
    raise (Error "gbc-image: CRC mismatch (corrupt image)");
  let r = reader ~truncated:"truncated image payload" s ~pos:20 ~limit:(20 + plen) in
  let sb = ru32 r in
  if sb <> Heap.stride_bits then
    raise
      (Error
         (Printf.sprintf
            "gbc-image: image stride_bits %d does not match this build (%d)"
            sb Heap.stride_bits));
  let segment_words = ru32 r in
  let max_generation = ru32 r in
  let card_words = ru32 r in
  let gc_epoch = ri64 r in
  (* A list, read word by word: an absurd [max_generation] runs into the
     payload's end before Config rejects it. *)
  let promoted = List.init max_generation (fun _ -> ri64 r) in
  let last_gc_generation = ri64 r in
  let words_since_gc = ri64 r in
  let nguardians = ru32 r in
  let config =
    match config with
    | Some c ->
        if
          c.Config.segment_words <> segment_words
          || c.Config.max_generation <> max_generation
        then
          raise
            (Error
               (Printf.sprintf
                  "gbc-image: image geometry (segment_words %d, \
                   max_generation %d) does not match the supplied config \
                   (%d, %d)"
                  segment_words max_generation c.Config.segment_words
                  c.Config.max_generation));
        c
    | None -> (
        try Config.v ~segment_words ~max_generation ~card_words ()
        with Invalid_argument m ->
          raise (Error ("gbc-image: bad image geometry: " ^ m)))
  in
  let h = Heap.create ~config () in
  let tel = Heap.telemetry h in
  let was_on = Telemetry.enabled tel in
  Telemetry.set_enabled tel true;
  Telemetry.phase_begin tel Telemetry.Image_load;
  (* Acquire each segment as its table entry is read.  A fresh heap hands
     out ids 0..n-1 in acquisition order, so the image numbering is the
     heap's own and relocation is the identity. *)
  let nsegs = ru32 r in
  (try
     for i = 0 to nsegs - 1 do
       let sp = ru8 r in
       if sp >= Space.count then
         raise (Error "gbc-image: bad space in the segment table");
       let generation = ru32 r in
       if generation > max_generation then
         raise (Error "gbc-image: bad generation in the segment table");
       let used = ru32 r in
       let size = ru32 r in
       let large = ru8 r <> 0 in
       let consistent =
         used <= size
         && size <= Heap.max_segment_words
         && if large then size > segment_words else size = segment_words
       in
       if not consistent then
         raise (Error "gbc-image: inconsistent segment table");
       let seg =
         Heap.acquire_segment h ~space:(Space.of_index sp) ~generation
           ~min_words:(if large then size else 1)
       in
       assert (seg = i);
       (Heap.info h seg).Heap.used <- used
     done
   with Heap.Out_of_memory ->
     raise
       (Error
          "gbc-image: image does not fit under the configured \
           max_heap_words"));
  (* A pointer's target must lie inside a restored segment's used words;
     [target] returns that segment's info. *)
  let infos = h.Heap.infos in
  let[@inline] target w =
    let a = Word.addr w in
    let seg = Heap.seg_of_addr a in
    if seg < 0 || seg >= nsegs || Heap.off_of_addr a >= infos.(seg).Heap.used then
      raise (Error "gbc-image: relocation target out of range");
    infos.(seg)
  in
  (* Segment [seg]'s words start at byte [at.(seg)] of [s]; [at.(nsegs)] ends them. *)
  let at = Array.make (nsegs + 1) r.pos in
  for seg = 0 to nsegs - 1 do
    at.(seg + 1) <- at.(seg) + (8 * infos.(seg).Heap.used)
  done;
  need r (at.(nsegs) - r.pos);
  r.pos <- at.(nsegs);
  (* A verified load runs {!Verify}'s checks of a fresh heap in this walk:
     the object starts come from a header pre-pass over the image, and
     each slot and root word gets {!Verify}'s slot check as it is read.  The
     remembered set is derived here, so it needs no check. *)
  let failed { Verify.what; where } =
    Error (Printf.sprintf "gbc-image: restored heap failed verification: %s at %s" what where)
  in
  let starts =
    if not config.Config.image_verify_on_load then None
    else
      let word seg off = Int64.to_int (String.get_int64_le s (at.(seg) + (8 * off))) in
      Some (Verify.object_starts h ~word ~err:(fun e -> raise (failed e)))
  in
  let fail f kind a b k w = raise (failed (Verify.fault_error h f kind a b k w)) in
  let reloc ~min_gen kind a b k w =
    let fault =
      match starts with
      | Some st when Word.is_pointer w -> Verify.pointer_fault st ~min_gen w (target w)
      | Some _ -> Verify.value_fault w
      | None -> if Word.is_pointer w then ignore (target w); None
    in
    (match fault with Some f -> fail f kind a b k w | None -> ());
    w
  in
  (* One walk per segment copies its words, checks the pointer slots,
     re-derives the remembered set with {!Heap.note_ref} and replays the
     allocator's crossing-map maintenance object by object.  Data-space
     bodies hold no pointers and are copied verbatim: string bytes and
     flonum bit patterns must not be mistaken for pointers. *)
  for seg = 0 to nsegs - 1 do
    let si = infos.(seg) in
    let gen = si.Heap.generation in
    let arr = h.Heap.segs.(seg) in
    let used = si.Heap.used in
    let base = at.(seg) in
    let[@inline] word off = Int64.to_int (String.get_int64_le s (base + (8 * off))) in
    (* Checks [w]'s target and notes an old-to-young slot; [ti] is the target's. *)
    let[@inline] note off w =
      let ti = target w in
      if ti.Heap.generation < gen then
        Heap.note_ref h ~addr:(Heap.addr_of ~seg ~off) ~gen:ti.Heap.generation;
      ti
    in
    (* [obj]: the header offset of a typed object, -1 in pair space. *)
    let slots ~obj ~off ~stop =
      match starts with
      | None ->
          for off = off to stop - 1 do
            let w = word off in
            arr.(off) <- w;
            if Word.is_pointer w then ignore (note off w)
          done
      | Some st ->
          for off = off to stop - 1 do
            let w = word off in
            arr.(off) <- w;
            let fault =
              if Word.is_pointer w then Verify.pointer_fault st ~min_gen:0 w (note off w)
              else Verify.value_fault w
            in
            match fault with
            | None -> ()
            | Some f ->
                if obj < 0 then fail f Verify.Field seg (off land -2) (off land 1) w
                else fail f Verify.Field seg obj (off - obj - 1) w
          done
    in
    (match si.Heap.space with
    | Space.Pair | Space.Weak | Space.Ephemeron ->
        if used land 1 <> 0 then
          raise (Error "gbc-image: odd word count in a pair segment");
        slots ~obj:(-1) ~off:0 ~stop:used;
        let off = ref 0 in
        while !off < used do
          Heap.note_object h si ~off:!off ~nwords:2;
          off := !off + 2
        done
    | Space.Typed | Space.Data ->
        let off = ref 0 in
        while !off < used do
          let hdr = word !off in
          if not (Word.is_fixnum hdr) then
            raise (Error "gbc-image: bad object header in a typed segment");
          let size = 1 + Obj.header_len hdr in
          if size <= 0 || !off + size > used then
            raise (Error "gbc-image: object overruns its segment");
          arr.(!off) <- hdr;
          if si.Heap.space = Space.Typed then
            slots ~obj:!off ~off:(!off + 1) ~stop:(!off + size)
          else
            for o = !off + 1 to !off + size - 1 do
              arr.(o) <- word o
            done;
          Heap.note_object h si ~off:!off ~nwords:size;
          off := !off + size
        done)
  done;
  let total_words = (at.(nsegs) - at.(0)) / 8 in
  for k = 0 to Space.count - 1 do
    let idx = ri64 r in
    if idx >= nsegs then raise (Error "gbc-image: bad allocation cursor");
    h.Heap.mutator_cursors.(k).Heap.seg <- (if idx < 0 then -1 else idx)
  done;
  let nglobals = ru32 r in
  let cells = ref h.Heap.global_cells in
  while Array.length !cells < nglobals do
    cells := Array.make (2 * Array.length !cells) Word.nil
  done;
  h.Heap.global_cells <- !cells;
  h.Heap.global_cells_len <- nglobals;
  for i = 0 to nglobals - 1 do
    h.Heap.global_cells.(i) <- reloc ~min_gen:0 Verify.Global i 0 0 (ri64 r)
  done;
  let nfree = ru32 r in
  let free = ref [] in
  for _ = 1 to nfree do
    let idx = ru32 r in
    if idx >= nglobals then raise (Error "gbc-image: bad free-cell index");
    free := idx :: !free
  done;
  h.Heap.global_free <- List.rev !free;
  for g = 0 to max_generation do
    let n = ru32 r in
    for j = 0 to n - 1 do
      let obj = reloc ~min_gen:g Verify.Entry g j 0 (ri64 r) in
      let rep = reloc ~min_gen:g Verify.Entry g j 1 (ri64 r) in
      let tconc = reloc ~min_gen:g Verify.Entry g j 2 (ri64 r) in
      let gid = ru32 r in
      if gid >= nguardians then
        raise (Error "gbc-image: bad guardian id in a protected list");
      Heap.protected_add_gen h ~generation:g ~gid ~obj ~rep ~tconc
    done
  done;
  h.Heap.gc_epoch <- gc_epoch;
  List.iteri (fun i w -> h.Heap.promoted_words.(i + 1) <- w) promoted;
  h.Heap.last_gc_generation <- last_gc_generation;
  (Heap.stats h).Stats.words_allocated_since_gc <- words_since_gc;
  Telemetry.restore_guardian_count tel nguardians;
  let symbols = ref [] in
  let nsyms = ru32 r in
  for j = 0 to nsyms - 1 do
    let name = rstr r in
    let w = reloc ~min_gen:0 (Verify.Root "symbols") 0 j 0 (ri64 r) in
    symbols := (name, w) :: !symbols
  done;
  let symbols = List.rev !symbols in
  let extras = ref [] in
  let nextras = ru32 r in
  for _ = 1 to nextras do
    let name = rstr r in
    let nw = ru32 r in
    let xwords = Array.make (max 1 nw) Word.nil and root = Verify.Root name in
    for j = 0 to nw - 1 do
      xwords.(j) <- reloc ~min_gen:0 root 0 j 0 (ri64 r)
    done;
    let xwords = Array.sub xwords 0 nw in
    let xbytes = rstr r in
    extras := (name, { xwords; xbytes }) :: !extras
  done;
  let extras = List.rev !extras in
  if r.pos <> r.limit then
    raise (Error "gbc-image: trailing bytes in the image payload");
  Telemetry.phase_end tel Telemetry.Image_load ~work:total_words;
  Telemetry.set_enabled tel was_on;
  let st = Heap.stats h in
  st.Stats.image_loads <- st.Stats.image_loads + 1;
  st.Stats.image_bytes_read <- st.Stats.image_bytes_read + total;
  st.Stats.image_words_read <- st.Stats.image_words_read + total_words;
  {
    heap = h;
    symbols;
    extras;
    image_bytes = total;
    restored_words = total_words;
    restored_segments = nsegs;
  }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let save_image ?symbols ?extras h path =
  let s = save_string ?symbols ?extras h in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let load_image ?config path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load_string ?config s
