(* Heap images: gbc-image/1 round-trips.

   The contract under test: save -> load rebuilds an equivalent heap
   (structure, sharing, identity, generations, guardian and weak state,
   allocation cursors, collection schedule), a reloaded heap is
   Verify-clean and collects correctly, save -> load -> save is
   byte-identical, and every corrupt/truncated/mismatched image is
   rejected with Image.Error — never a crash, never a silent misload. *)

open Gbc_runtime
open Gbc_image

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let cfg = Config.v ~segment_words:128 ~max_generation:3 ()
let heap () = Heap.create ~config:cfg ()
let fx = Word.of_fixnum

let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

let retrieve_all h g =
  let rec loop acc =
    match Guardian.retrieve h g with
    | None -> List.rev acc
    | Some w -> loop (w :: acc)
  in
  loop []

(* Save [h] carrying [words] along as an extra section, reload, and
   return (bytes, loaded, relocated words). *)
let roundtrip ?(symbols = []) ?(words = []) h =
  let extras =
    [ ("t", { Image.xwords = Array.of_list words; xbytes = "" }) ]
  in
  let s = Image.save_string ~symbols ~extras h in
  let l = Image.load_string ~config:(Heap.config h) s in
  let words' = Array.to_list (List.assoc "t" l.Image.extras).xwords in
  (s, l, words')

(* The canonical-form claim: re-serializing the restored heap (with the
   restored sections) reproduces the original bytes. *)
let check_canonical name s (l : Image.loaded) =
  let s2 =
    Image.save_string ~symbols:l.Image.symbols ~extras:l.Image.extras
      l.Image.heap
  in
  check (name ^ ": save->load->save byte-identical") true (String.equal s s2)

let test_empty_heap () =
  let h = heap () in
  let s, l, _ = roundtrip h in
  check_int "no segments" 0 l.Image.restored_segments;
  check "verify clean" true (Verify.verify l.Image.heap = []);
  check_canonical "empty" s l

(* The save sizes its frame before writing it: edge-sized sections must
   land exactly, and round-trip byte-identically. *)
let test_frame_sizes () =
  let case name ?(symbols = []) ?(extras = []) h =
    let s = Image.save_string ~symbols ~extras h in
    check_canonical name s (Image.load_string ~config:(Heap.config h) s)
  in
  case "empty heap" (heap ());
  let h = heap () in
  ignore (Handle.create h (Obj.cons h (fx 1) Word.nil));
  case "empty symbol name" ~symbols:[ ("", fx 7) ] h;
  case "empty extra" ~extras:[ ("", { Image.xwords = [||]; xbytes = "" }) ] h;
  let name = String.make 70_000 'n' and xbytes = String.make 700_000 'b' in
  case "dominant extra" ~extras:[ (name, { Image.xwords = [| fx 3 |]; xbytes }) ] h

let test_structure_and_sharing () =
  let h = heap () in
  let shared = Obj.cons h (fx 1) (fx 2) in
  let a = Obj.cons h shared shared in
  let cyc = Obj.cons h (fx 9) Word.nil in
  Obj.set_cdr h cyc cyc;
  let v = Obj.vector_of_list h [ a; cyc; fx 3 ] in
  let str = Obj.string_of_ocaml h "hello image" in
  let fl = Obj.make_flonum h 3.14159 in
  let box = Obj.make_box h v in
  let s, l, words = roundtrip h ~words:[ a; cyc; v; str; fl; box ] in
  let h' = l.Image.heap in
  (match words with
  | [ a'; cyc'; v'; str'; fl'; box' ] ->
      (* Sharing: both fields of [a] are the same cell. *)
      check "sharing preserved" true
        (Word.equal (Obj.car h' a') (Obj.cdr h' a'));
      check_int "through shared cell" 1
        (Word.to_fixnum (Obj.car h' (Obj.car h' a')));
      (* The cycle still closes. *)
      check "cycle preserved" true (Word.equal (Obj.cdr h' cyc') cyc');
      (* Vector slots point at the same relocated objects. *)
      check "vector slot identity" true
        (Word.equal (Obj.vector_ref h' v' 0) a');
      check "vector slot identity (cycle)" true
        (Word.equal (Obj.vector_ref h' v' 1) cyc');
      check_str "string contents" "hello image" (Obj.string_to_ocaml h' str');
      Alcotest.(check (float 0.)) "flonum bits" 3.14159 (Obj.flonum_value h' fl');
      check "box contents" true (Word.equal (Obj.box_ref h' box') v')
  | _ -> Alcotest.fail "extra words lost");
  check "verify clean" true (Verify.verify h' = []);
  check_canonical "structure" s l

let test_restored_heap_collects () =
  let h = heap () in
  let keep = Obj.cons h (fx 42) Word.nil in
  for i = 0 to 199 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  let _, l, words = roundtrip h ~words:[ keep ] in
  let h' = l.Image.heap in
  let keep' = List.hd words in
  (* Root it, then collect everything: the garbage we serialized must be
     reclaimed and the survivor promoted intact. *)
  Heap.with_cell h' keep' (fun c ->
      full_collect h';
      full_collect h';
      let keep'' = Heap.read_cell h' c in
      check_int "survivor intact" 42 (Word.to_fixnum (Obj.car h' keep''));
      check "survivor promoted" true
        (Heap.generation_of_word h' keep'' > 0);
      check "verify clean after post-restore GCs" true
        (Verify.verify h' = []))

let test_generations_and_schedule () =
  let h = heap () in
  let old = Obj.cons h (fx 7) Word.nil in
  Heap.with_cell h old (fun c ->
      full_collect h;
      full_collect h;
      (* Young survivors promoted into generations 1 and 2 leave promoted
         words for the schedule in both. *)
      List.iter
        (fun g ->
          ignore (Heap.new_cell h (Obj.cons h (fx g) Word.nil));
          ignore (Collector.collect h ~gen:g))
        [ 1; 0 ];
      let old = Heap.read_cell h c in
      let gen = Heap.generation_of_word h old in
      check "object aged" true (gen >= 2);
      let s, l, words = roundtrip h ~words:[ old ] in
      let h' = l.Image.heap in
      check_int "generation preserved" gen
        (Heap.generation_of_word h' (List.hd words));
      check_int "gc_epoch preserved" (Heap.gc_epoch h) (Heap.gc_epoch h');
      check "promoted into 1 and 2" true
        (h.Heap.promoted_words.(1) > 0 && h.Heap.promoted_words.(2) > 0);
      Alcotest.(check (array int)) "promoted words preserved" h.Heap.promoted_words
        h'.Heap.promoted_words;
      check_int "last_gc_generation preserved" h.Heap.last_gc_generation
        h'.Heap.last_gc_generation;
      check_canonical "generations" s l)

let test_old_to_young_remembered () =
  (* An old object referencing a young one: the restored remembered set
     must make the young one survive a minor collection of the restored
     heap. *)
  let h = heap () in
  let old = Obj.cons h Word.nil Word.nil in
  Heap.with_cell h old (fun c ->
      full_collect h;
      full_collect h;
      let old = Heap.read_cell h c in
      check "old indeed" true (Heap.generation_of_word h old >= 2);
      let young = Obj.cons h (fx 5) Word.nil in
      Obj.set_car h old young;
      let _, l, words = roundtrip h ~words:[ old ] in
      let h' = l.Image.heap in
      let old' = List.hd words in
      (* Nothing roots [old'] in h' except this fresh cell; the young
         cell is reachable only through the old->young slot, i.e. only
         through the rebuilt cards. *)
      Heap.with_cell h' old' (fun _ ->
          ignore (Collector.collect h' ~gen:0);
          check_int "young survived via rebuilt remembered set" 5
            (Word.to_fixnum (Obj.car h' (Obj.car h' old')));
          check "verify clean" true (Verify.verify h' = [])))

let test_large_object () =
  let h = heap () in
  (* 300 slots >> segment_words 128: an oversized segment. *)
  let v = Obj.make_vector h ~len:300 ~init:(fx 0) in
  for i = 0 to 299 do
    Obj.vector_set h v i (fx (i * 3))
  done;
  let s, l, words = roundtrip h ~words:[ v ] in
  let h' = l.Image.heap in
  let v' = List.hd words in
  check_int "length" 300 (Obj.vector_length h' v');
  check_int "first" 0 (Word.to_fixnum (Obj.vector_ref h' v' 0));
  check_int "last" 897 (Word.to_fixnum (Obj.vector_ref h' v' 299));
  check_canonical "large object" s l

(* The rebuilt crossing map and card bytes are exact.  Every in-use
   card's object start matches the source heap's, and every card byte is
   the minimum recomputed from the card's pointer slots.  Data-space words
   are payload, never slots, even when their bits carry a pointer tag. *)
let test_cards_and_crossing_exact () =
  let config = Config.v ~segment_words:128 ~card_words:8 ~max_generation:3 () in
  let h = Heap.create ~config () in
  let keep = Heap.new_cell h Word.nil in
  let push w = Heap.write_cell h keep (Obj.cons h w (Heap.read_cell h keep)) in
  let fake = Word.pair_ptr (Heap.addr_of ~seg:999 ~off:3) in
  for round = 0 to 3 do
    for i = 0 to 40 do
      push (Obj.make_vector h ~len:(1 + (i * 7 mod 23)) ~init:(fx i));
      let fl = Obj.make_flonum h (float_of_int i) in
      Heap.store h (Word.addr fl + 1) fake;
      Heap.store h (Word.addr fl + 2) (Heap.read_cell h keep);
      push fl;
      push (Obj.weak_cons h (Heap.read_cell h keep) Word.nil);
      push (Obj.ephemeron_cons h (Heap.read_cell h keep) (fx i))
    done;
    ignore (Collector.collect h ~gen:round)
  done;
  (* Old-to-young stores: young pairs into old vectors and old spine
     cells. *)
  let rec store_young l i =
    if Word.is_pair_ptr l then begin
      let x = Obj.car h l in
      if i mod 3 = 0 then Obj.set_car h l (Obj.cons h (fx i) Word.nil)
      else if Obj.is_vector h x then Obj.vector_set h x 0 (Obj.cons h (fx i) Word.nil);
      store_young (Obj.cdr h l) (i + 1)
    end
  in
  store_young (Heap.read_cell h keep) 0;
  let _, l, _ = roundtrip h in
  let h' = l.Image.heap in
  let cw = Heap.card_words h' in
  let source = ref [] in
  for seg = h.Heap.nsegs - 1 downto 0 do
    if (Heap.info h seg).Heap.live then source := seg :: !source
  done;
  let cards = ref 0 and dirty = ref 0 in
  let bad_crossing = ref 0 and bad_byte = ref 0 in
  List.iteri
    (fun seg src ->
      let si = Heap.info h' seg in
      for card = 0 to Heap.cards_in_use h' seg - 1 do
        incr cards;
        if Heap.card_object_start h ~seg:src ~card <> Heap.card_object_start h' ~seg ~card
        then incr bad_crossing;
        let m = ref Heap.card_clean in
        if si.Heap.space <> Space.Data then
          for off = card * cw to min si.Heap.used ((card + 1) * cw) - 1 do
            let w = Heap.load h' (Heap.addr_of ~seg ~off) in
            let g = Heap.generation_of_word h' w in
            if g < si.Heap.generation && g < !m then m := g
          done;
        if !m <> Heap.card_clean then incr dirty;
        if !m <> Heap.card_min_gen h' ~seg ~card then incr bad_byte
      done)
    !source;
  check_int "crossing mismatches" 0 !bad_crossing;
  check_int "card byte mismatches" 0 !bad_byte;
  check "many cards" true (!cards > 500);
  check "some old-to-young cards" true (!dirty > 10);
  check "verify clean" true (Verify.verify h' = [])

let test_weak_and_ephemeron () =
  let h = heap () in
  let target = Obj.cons h (fx 11) Word.nil in
  let wp = Obj.weak_cons h target Word.nil in
  let key = Obj.cons h (fx 1) Word.nil in
  let eph = Obj.ephemeron_cons h key (Obj.cons h (fx 2) Word.nil) in
  let s, l, words = roundtrip h ~words:[ target; wp; key; eph ] in
  let h' = l.Image.heap in
  (match words with
  | [ target'; wp'; key'; eph' ] ->
      (* Weak car relocated, still pointing at the (relocated) target. *)
      check "weak target relocated" true
        (Word.equal (Obj.car h' wp') target');
      check "still a weak pair" true (Obj.is_weak_pair h' wp');
      check "still an ephemeron" true (Obj.is_ephemeron h' eph');
      check_int "ephemeron value alive" 2
        (Word.to_fixnum (Obj.car h' (Obj.cdr h' eph')));
      (* Canonical-bytes check must run on the pristine restored heap,
         before we collect it below. *)
      check_canonical "weak" s l;
      (* Weak semantics still work post-restore: root only the weak
         pair and the ephemeron, drop target and key, collect.  The
         pairs move, so re-read them from their root cells. *)
      Heap.with_cell h' wp' (fun wc ->
          Heap.with_cell h' eph' (fun ec ->
              ignore key';
              full_collect h';
              check "weak car broken after restore+collect" true
                (Word.is_false (Obj.car h' (Heap.read_cell h' wc)));
              check "ephemeron broken after restore+collect" true
                (Word.is_false (Obj.car h' (Heap.read_cell h' ec)))))
  | _ -> Alcotest.fail "extra words lost")

let test_tconc_queue_order () =
  let h = heap () in
  let tc = Tconc.make h in
  List.iter (fun i -> Tconc.mutator_enqueue h tc (fx i)) [ 3; 1; 4; 1; 5 ];
  let s, l, words = roundtrip h ~words:[ tc ] in
  let h' = l.Image.heap in
  let tc' = List.hd words in
  Alcotest.(check (list int)) "queue order preserved" [ 3; 1; 4; 1; 5 ]
    (List.map Word.to_fixnum (Tconc.to_list h' tc'));
  check_canonical "tconc" s l

let test_guardian_pending_order () =
  (* Queued-but-not-yet-polled objects come back in the same order. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  for i = 0 to 9 do
    Guardian.register h (Handle.get g) (Obj.cons h (fx i) Word.nil)
  done;
  full_collect h;
  check_int "all pending" 10 (Guardian.pending_count h (Handle.get g));
  let before =
    List.map
      (fun w -> Word.to_fixnum (Obj.car h w))
      (Guardian.pending_list h (Handle.get g))
  in
  let s, l, words = roundtrip h ~words:[ Handle.get g ] in
  let h' = l.Image.heap in
  let g' = List.hd words in
  check "still a guardian" true (Guardian.is_guardian h' g');
  check_canonical "guardian pending" s l;
  (* Retrieval dequeues, so it comes after the canonical-bytes check. *)
  let after =
    List.map (fun w -> Word.to_fixnum (Obj.car h' w)) (retrieve_all h' g')
  in
  Alcotest.(check (list int)) "pending order preserved" before after

let test_guardian_registration_survives () =
  (* A registration that has NOT fired yet: the protected-list entry
     rides along, and the restored collector fires it. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let obj = Obj.cons h (fx 21) Word.nil in
  let rep = Obj.cons h (fx 22) Word.nil in
  Guardian.register h (Handle.get g) obj;
  Guardian.register_with_rep h (Handle.get g) ~obj ~rep;
  check_int "entries pending in gen 0" 2 (Heap.protected_length h 0);
  let _, l, words = roundtrip h ~words:[ Handle.get g ] in
  let h' = l.Image.heap in
  let g' = List.hd words in
  check_int "entries restored" 2 (Heap.protected_length h' 0);
  (* obj is unreachable in h' (only the guardian came through a root):
     both registrations fire. *)
  Heap.with_cell h' g' (fun c ->
      full_collect h';
      let saved = retrieve_all h' (Heap.read_cell h' c) in
      let ints =
        List.sort compare (List.map (fun w -> Word.to_fixnum (Obj.car h' w)) saved)
      in
      Alcotest.(check (list int)) "both registrations fired" [ 21; 22 ] ints)

let test_reregistration_after_restore () =
  (* Retrieve from a restored guardian, re-register, drop, collect: the
     object comes back again.  Exercises the guardian-id restore (the
     telemetry hub must know the image's gids). *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 8) Word.nil);
  full_collect h;
  let _, l, words = roundtrip h ~words:[ Handle.get g ] in
  let h' = l.Image.heap in
  let g' = List.hd words in
  Heap.with_cell h' g' (fun c ->
      let g' () = Heap.read_cell h' c in
      let x = Option.get (Guardian.retrieve h' (g' ())) in
      check_int "retrieved after restore" 8 (Word.to_fixnum (Obj.car h' x));
      Guardian.register h' (g' ()) x;
      full_collect h';
      check "re-registration fires" true
        (Guardian.retrieve h' (g' ()) <> None);
      (* A brand-new guardian on the restored heap gets a fresh id. *)
      let g2 = Guardian.make h' in
      check "fresh gid after restore" true
        (Guardian.id h' g2 <> Guardian.id h' (g' ())))

let test_guardian_of_guardian_chain () =
  let h = heap () in
  let outer = Handle.create h (Guardian.make h) in
  let mid = Guardian.make h in
  Heap.with_cell h mid (fun midc ->
      let inner = Guardian.make h in
      Heap.with_cell h inner (fun innerc ->
          let x = Obj.cons h (fx 77) Word.nil in
          Guardian.register h (Heap.read_cell h innerc) x;
          Guardian.register h (Heap.read_cell h midc) (Heap.read_cell h innerc);
          Guardian.register h (Handle.get outer) (Heap.read_cell h midc)));
  (* Image taken while the whole chain is registered-but-unfired. *)
  let _, l, words = roundtrip h ~words:[ Handle.get outer ] in
  let h' = l.Image.heap in
  let outer' = List.hd words in
  Heap.with_cell h' outer' (fun c ->
      full_collect h';
      let mid' = Option.get (Guardian.retrieve h' (Heap.read_cell h' c)) in
      check "mid is guardian" true (Guardian.is_guardian h' mid');
      let inner' = Option.get (Guardian.retrieve h' mid') in
      check "inner is guardian" true (Guardian.is_guardian h' inner');
      let x' = Option.get (Guardian.retrieve h' inner') in
      check_int "x found through restored chain" 77
        (Word.to_fixnum (Obj.car h' x')))

let test_symtab_identity () =
  let h = heap () in
  let st = Symtab.create h in
  let foo = Symtab.intern st "foo" in
  let bar = Symtab.intern st "bar" in
  check "interning is identity" true (Word.equal foo (Symtab.intern st "foo"));
  let s = Image.save_string ~symbols:(Symtab.entries st) h in
  let l = Image.load_string ~config:(Heap.config h) s in
  let h' = l.Image.heap in
  let st' = Symtab.create h' in
  Symtab.restore st' l.Image.symbols;
  check_int "both symbols restored" 2 (Symtab.count st');
  let foo' = Symtab.intern st' "foo" in
  check "restored symbol is interned, not re-made" true
    (Word.equal foo' (List.assoc "foo" l.Image.symbols));
  check_str "symbol name round-trips" "foo" (Obj.symbol_name_string h' foo');
  check "distinct symbols stay distinct" true
    (not (Word.equal foo' (Symtab.intern st' "bar")));
  ignore bar;
  (* Identity through heap structure: a pair of the symbol and a fresh
     intern of the same name are eq. *)
  let p = Obj.cons h' foo' (Symtab.intern st' "foo") in
  check "eq through structure" true (Word.equal (Obj.car h' p) (Obj.cdr h' p));
  Symtab.dispose st'

let test_allocation_continues_in_cursor_segment () =
  (* The mutator cursors are restored: allocation after a load continues
     in the partially-filled segments rather than acquiring fresh ones. *)
  let h = heap () in
  ignore (Obj.cons h (fx 1) Word.nil);
  let segs_before = Heap.live_segments h in
  let _, l, _ = roundtrip h in
  let h' = l.Image.heap in
  check_int "same live segments" segs_before (Heap.live_segments h');
  ignore (Obj.cons h' (fx 2) Word.nil);
  check_int "no fresh segment for the next cons" segs_before
    (Heap.live_segments h');
  check "verify clean" true (Verify.verify h' = [])

let test_telemetry_counters () =
  let h = heap () in
  ignore (Obj.cons h (fx 1) Word.nil);
  let s = Image.save_string h in
  let c = Heap.stats h in
  check_int "one save" 1 c.Stats.image_saves;
  check_int "bytes counted" (String.length s) c.Stats.image_bytes_written;
  check "words counted" true (c.Stats.image_words_written > 0);
  let l = Image.load_string ~config:(Heap.config h) s in
  let c' = Heap.stats l.Image.heap in
  check_int "one load" 1 c'.Stats.image_loads;
  check_int "bytes read" (String.length s) c'.Stats.image_bytes_read;
  check_int "words read = words written" c.Stats.image_words_written
    c'.Stats.image_words_read

(* ------------------------------------------------------------------ *)
(* Rejection paths                                                     *)

let expect_error name f =
  match f () with
  | (_ : Image.loaded) -> Alcotest.fail (name ^ ": corrupt image accepted")
  | exception Image.Error _ -> ()
  | exception e ->
      Alcotest.fail
        (Printf.sprintf "%s: expected Image.Error, got %s" name
           (Printexc.to_string e))

let small_image () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  ignore (Obj.cons h (fx 2) (Obj.string_of_ocaml h "x"));
  Image.save_string h

let test_every_single_byte_flip_rejected () =
  (* The ISSUE's contract: flip any single byte of a valid image and the
     loader must reject it cleanly (magic, version, length, CRC — some
     check fires for every position), never crash, never silently load. *)
  let s = small_image () in
  let n = String.length s in
  for pos = 0 to n - 1 do
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    expect_error
      (Printf.sprintf "flip at %d/%d" pos n)
      (fun () -> Image.load_string (Bytes.to_string b))
  done;
  (* Low-bit flips too, at a sample of positions. *)
  let step = max 1 (n / 97) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string s in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x01));
    expect_error
      (Printf.sprintf "low-bit flip at %d" !pos)
      (fun () -> Image.load_string (Bytes.to_string b));
    pos := !pos + step
  done

let test_truncation_rejected () =
  let s = small_image () in
  List.iter
    (fun len ->
      expect_error
        (Printf.sprintf "truncated to %d" len)
        (fun () -> Image.load_string (String.sub s 0 len)))
    [ 0; 1; 7; 8; 12; 20; 23; String.length s / 2; String.length s - 1 ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_version_mismatch_rejected () =
  let s = small_image () in
  let b = Bytes.of_string s in
  (* The version field sits right after the 8-byte magic and is outside
     the CRC'd payload, so this exercises the version check itself. *)
  Bytes.set b 8 '\x02';
  match Image.load_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "future version accepted"
  | exception Image.Error msg ->
      check "message names the version" true (contains_sub msg "version")

let test_bad_magic_rejected () =
  let s = small_image () in
  let b = Bytes.of_string s in
  Bytes.set b 0 'X';
  expect_error "bad magic" (fun () -> Image.load_string (Bytes.to_string b))

let test_config_mismatch_rejected () =
  let s = small_image () in
  expect_error "segment_words mismatch" (fun () ->
      Image.load_string ~config:(Config.v ~segment_words:256 ()) s);
  expect_error "max_generation mismatch" (fun () ->
      Image.load_string
        ~config:(Config.v ~segment_words:128 ~max_generation:2 ())
        s)

let test_ceiling_too_small_rejected () =
  let s = small_image () in
  expect_error "image over max_heap_words" (fun () ->
      Image.load_string
        ~config:(Config.v ~segment_words:128 ~max_generation:3 ~max_heap_words:128 ())
        s)

let test_save_during_collection_rejected () =
  let h = heap () in
  let hit = ref false in
  h.Heap.in_collection <- true;
  (try ignore (Image.save_string h) with Image.Error _ -> hit := true);
  h.Heap.in_collection <- false;
  check "save during collection rejected" true !hit;
  h.Heap.alloc_forbidden <- true;
  let hit2 = ref false in
  (try ignore (Image.save_string h) with Image.Error _ -> hit2 := true);
  h.Heap.alloc_forbidden <- false;
  check "save inside finalization thunk rejected" true !hit2

(* Words a save must refuse, planted past the write barrier: pointers
   into a segment the heap does not have and into one a collection
   released, and one at the first unused word of a live segment.  Each
   goes once into a vector slot and once into a global cell, on a fresh
   heap. *)
let test_save_bad_pointer_rejected () =
  let dead = "gbc-image: save: pointer into a dead segment" in
  let unknown h = Word.pair_ptr (Heap.addr_of ~seg:h.Heap.nsegs ~off:0) in
  let released h =
    let seg = Heap.seg_of_addr (Word.addr (Obj.cons h (fx 1) Word.nil)) in
    full_collect h;
    check "segment released" false (Heap.info h seg).Heap.live;
    Word.pair_ptr (Heap.addr_of ~seg ~off:0)
  in
  let past h =
    let seg = Heap.seg_of_addr (Word.addr (Obj.cons h (fx 1) Word.nil)) in
    Word.pair_ptr (Heap.addr_of ~seg ~off:(Heap.info h seg).Heap.used)
  in
  List.iter
    (fun (msg, bad) ->
      List.iter
        (fun (where, plant) ->
          let h = heap () in
          let v = Handle.create h (Obj.make_vector h ~len:2 ~init:(fx 0)) in
          let w = bad h in
          plant h (Handle.get v) w;
          match Image.save_string h with
          | _ -> Alcotest.failf "%s: %s saved" where msg
          | exception Image.Error m -> check_str (where ^ ": message") msg m)
        [
          ("vector slot", fun h v w -> Heap.store h (Word.addr v + 1) w);
          ("global cell", fun h _ w -> ignore (Heap.new_cell h w));
        ])
    [
      (dead, unknown);
      (dead, released);
      ("gbc-image: save: pointer past a segment's used words", past);
    ]

(* Byte-at-a-time CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320),
   written out here as an independent reference. *)
let reference_crc32 s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

(* Both paths of the C kernel: [Image.crc32] folds ranges of 64 bytes or
   more with PCLMULQDQ where the CPU has it, [Image.crc32_portable] is
   the table loop every other host runs. *)
let crc32_paths = [ ("kernel", Image.crc32); ("portable", Image.crc32_portable) ]

let test_crc32_reference () =
  (* High bytes everywhere: a 64-bit read would lose bit 63.  Lengths
     0..320 at 64 alignments cover the table-only inputs under 64 bytes,
     the 64-byte fold entry, the four-lane loop, the 16-byte loop and
     every 0-15 byte tail. *)
  let buf = String.init 400 (fun i -> Char.chr (0x80 lor ((i * 37) land 0x7f))) in
  List.iter
    (fun (path, crc32) ->
      check_int (path ^ ": check value") 0xCBF43926 (crc32 "123456789" ~pos:0 ~len:9);
      for pos = 0 to 63 do
        for len = 0 to 320 do
          let want = reference_crc32 buf ~pos ~len and got = crc32 buf ~pos ~len in
          if got <> want then
            Alcotest.failf "%s: pos %d len %d: %08x, want %08x" path pos len got want
        done
      done;
      List.iter
        (fun (pos, len) ->
          match crc32 buf ~pos ~len with
          | _ -> Alcotest.failf "%s: pos %d len %d past the end accepted" path pos len
          | exception Invalid_argument _ -> ())
        [ (0, 401); (385, 16); (394, 7); (400, 1); (-1, 64) ])
    crc32_paths;
  let s = small_image () in
  let plen = String.length s - 24 in
  check_int "image trailer"
    (reference_crc32 s ~pos:20 ~len:plen)
    (Int32.to_int (String.get_int32_le s (20 + plen)) land 0xFFFFFFFF)

(* A checkpoint-sized input: 4 MiB of pseudo-random bytes, at offsets
   that put the fold on and off a 16-byte boundary. *)
let test_crc32_large () =
  let st = Random.State.make [| 25 |] in
  let buf = String.init (4 lsl 20) (fun _ -> Char.chr (Random.State.int st 256)) in
  List.iter
    (fun pos ->
      let len = String.length buf - pos - 3 in
      let want = reference_crc32 buf ~pos ~len in
      List.iter
        (fun (path, crc32) ->
          check_int (Printf.sprintf "%s: pos %d" path pos) want (crc32 buf ~pos ~len))
        crc32_paths)
    [ 0; 1; 7 ]

let le64 w =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int w);
  Bytes.to_string b

(* The one payload offset where [pattern] occurs. *)
let find_once name s pattern =
  let n = String.length pattern in
  let at = ref [] in
  for i = 20 to String.length s - n - 4 do
    if String.sub s i n = pattern then at := i :: !at
  done;
  check_int (name ^ " found once") 1 (List.length !at);
  List.hd !at

(* [s] with [bytes] written at [pos] and the CRC trailer recomputed. *)
let patched s pos bytes =
  let b = Bytes.of_string s in
  Bytes.blit_string bytes 0 b pos (String.length bytes);
  let plen = Bytes.length b - 24 in
  let crc = Image.crc32 (Bytes.to_string b) ~pos:20 ~len:plen in
  Bytes.set_int32_le b (20 + plen) (Int32.of_int crc);
  Bytes.to_string b

(* [s] with the pointer word at [pos] moved [by] words into its object,
   and the CRC trailer recomputed. *)
let interior_at ~by s pos =
  let w = Int64.to_int (String.get_int64_le s pos) in
  patched s pos (le64 (Word.with_addr w (Word.addr w + by)))

(* A crafted image whose global cell points into the middle of a vector
   (with a valid CRC) must be rejected by the verified load. *)
let test_interior_root_rejected () =
  let h = heap () in
  let v = Handle.create h (Obj.make_vector h ~len:6 ~init:(fx 0)) in
  let s = Image.save_string h in
  let s = interior_at ~by:2 s (find_once "cell word" s (le64 (Handle.get v))) in
  expect_error "interior root" (fun () -> Image.load_string ~config:cfg s)

(* Differential rejection: each crafted heap breaks one invariant that
   only Verify checks, and saves to a CRC-valid image that a trusted load
   accepts.  The verified load must refuse it with one of the errors
   Verify.verify reports for the trusted load, word for word. *)
let verified_load_case what craft () =
  let h = heap () in
  let v1 = Obj.make_vector h ~len:4 ~init:(fx 1) and v2 = Obj.make_vector h ~len:4 ~init:(fx 2) in
  let p1 = Obj.cons h (fx 3) Word.nil and p2 = Obj.cons h (fx 4) Word.nil in
  craft h (Word.addr v1) (Word.addr v2) (Word.addr p1) (Word.addr p2);
  let s = Image.save_string h in
  let trusted = Config.v ~segment_words:128 ~max_generation:3 ~image_verify_on_load:false () in
  let errs = Verify.verify (Image.load_string ~config:trusted s).Image.heap in
  let message e =
    Printf.sprintf "gbc-image: restored heap failed verification: %s at %s" e.Verify.what
      e.Verify.where
  in
  match Image.load_string ~config:cfg s with
  | _ -> Alcotest.failf "%s: verified load accepted" what
  | exception Image.Error msg -> (
      match List.find_opt (fun e -> message e = msg) errs with
      | Some e -> check_str "what" what e.Verify.what
      | None ->
          Alcotest.failf "%s: %s is none of Verify's: %s" what msg
            (String.concat "; " (List.map message errs)))

let verified_load_cases =
  let young_entry h _ _ p1 _ =
    (* Generation 2's list naming a generation-0 pair, with a real
       guardian's tconc and id. *)
    let g = Guardian.make h in
    Guardian.register h g (Word.pair_ptr p1);
    let p = h.Heap.protected.(0) in
    let tconc = Vec.Int.get p.Heap.p_tconcs 0 and gid = Vec.Int.get p.Heap.p_gids 0 in
    Heap.protected_add_gen h ~generation:2 ~gid ~obj:(Word.pair_ptr p1) ~rep:Word.nil ~tconc
  in
  [
    ( "interior pointer in a typed field",
      "pointer to object interior",
      fun h v1 v2 _ _ -> Heap.store h (v1 + 1) (Word.typed_ptr (v2 + 2)) );
    ( "interior pointer in a pair car",
      "pointer to object interior",
      fun h _ v2 p1 _ -> Heap.store h p1 (Word.typed_ptr (v2 + 2)) );
    ( "pair tag into typed space",
      "pair pointer into non-pair space",
      fun h v1 v2 _ _ -> Heap.store h (v1 + 1) (Word.pair_ptr v2) );
    ( "typed tag into pair space",
      "typed pointer into pair space",
      fun h _ _ p1 p2 -> Heap.store h p1 (Word.typed_ptr p2) );
    ( "forwarding marker in a pair car",
      "forwarding marker stored as a value",
      fun h _ _ p1 _ -> Heap.store h p1 Word.forward_marker );
    ( "type code above code_pad",
      "unknown type code",
      fun h v1 _ _ _ -> Heap.store h v1 (Obj.header ~len:4 ~code:(Obj.code_pad + 1)) );
    ("protected entry younger than its list", "protected entry younger than its list", young_entry);
  ]
  |> List.map (fun (name, what, craft) ->
         Alcotest.test_case ("verified load: " ^ name) `Quick (verified_load_case what craft))

(* The clean direction, at the size of a checkpoint: about 700k words in
   several generations, old-to-young slots, guardian entries registered
   and queued.  The verified load accepts it and Verify agrees. *)
let test_checkpoint_sized_verified_load () =
  let config = Config.v ~max_generation:4 () in
  let h = Heap.create ~config () in
  let g = Handle.create h (Guardian.make h) in
  let keep = Handle.create h (Obj.make_vector h ~len:4000 ~init:Word.nil) in
  for k = 0 to 3999 do
    let blob = Obj.make_vector h ~len:(16 + (k * 37 mod 112)) ~init:(fx k) in
    let chain = ref Word.nil in
    for j = 1 to 8 + (k * 53 mod 80) do
      chain := Obj.cons h (fx j) !chain
    done;
    Obj.vector_set h (Handle.get keep) k (Obj.cons h blob !chain);
    if k mod 7 = 0 then Guardian.register h (Handle.get g) blob;
    if k mod 11 = 0 then Guardian.register h (Handle.get g) (Obj.cons h (fx k) Word.nil);
    if k mod 1000 = 999 then full_collect h
  done;
  let s, l, g' = roundtrip h ~words:[ Handle.get g ] in
  check "checkpoint-sized" true (l.Image.restored_words > 600_000);
  check "verify clean" true (Verify.verify l.Image.heap = []);
  check_canonical "checkpoint-sized" s l;
  check "a queued entry comes back" true (Guardian.retrieve l.Image.heap (List.hd g') <> None)

(* Scheme system images whose code section carries one crafted block:
   the codec writes any operand, and the restore must reject each one
   that indexes past its table with Image.Error, before any code runs.
   [Machine.add_code] refuses such a block, so it goes straight into the
   scheme/codes section. *)
module Scheme = Gbc_scheme.Scheme
module Machine = Gbc_scheme.Machine
module Instr = Gbc_scheme.Instr

let scheme_image_with ?(required = 0) ?(frame = required) make_instrs =
  let m = Scheme.create () in
  let instrs = make_instrs m in
  let code =
    { Instr.name = "crafted"; clauses = [ { Instr.required; rest = false; frame; instrs } ] }
  in
  let symbols, extras = Scheme.Scheme_image.sections m in
  let codes = Array.append (Machine.image_codes m) [| code |] in
  let extras =
    List.map
      (fun (name, x) ->
        if name <> Scheme.Scheme_image.codes_section then (name, x)
        else (name, { x with Image.xbytes = Scheme.Scheme_image.encode_codes codes }))
      extras
  in
  let s = Image.save_string ~symbols ~extras (Machine.heap m) in
  Machine.dispose m;
  s

let load_scheme s =
  Machine.dispose (Scheme.Scheme_image.load_string ~install:Scheme.Primitives.install s)

let expect_code_rejected name make_instrs =
  match load_scheme (scheme_image_with make_instrs) with
  | () -> Alcotest.fail (name ^ ": crafted code accepted")
  | exception Image.Error _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Image.Error, got %s" name (Printexc.to_string e)

let ncells m = (Machine.heap m).Heap.global_cells_len

(* Continuations name their resume points by code id, clause and pc,
   which the image keeps: one captured in clause 1 of a case-lambda, and
   one 300 frames deep (past a fresh machine's control array), resume in
   the restored system. *)
let test_continuation_survives_image () =
  let m = Scheme.create () in
  ignore
    (Scheme.eval m
       "(define k #f)\n\
        (define f (case-lambda (() 'none) ((x) (list 'first (+ x (call/cc (lambda (c) (set! k c) 0)))))))\n\
        (define kd #f)\n\
        (define (deep d) (if (= d 0) (call/cc (lambda (c) (set! kd c) 0)) (+ 1 (deep (- d 1)))))");
  check_str "captured" "(first 10)" (Scheme.eval m "(f 10)");
  check_str "deep" "300" (Scheme.eval m "(deep 300)");
  let s = Scheme.Scheme_image.save_string m in
  Machine.dispose m;
  let r = Scheme.Scheme_image.load_string ~install:Scheme.Primitives.install s in
  check_str "resumed" "(first 11)" (Scheme.eval r "(k 1)");
  check_str "resumed again" "(first 12)" (Scheme.eval r "(k 2)");
  check_str "deep resumed" "305" (Scheme.eval r "(kd 5)");
  Machine.dispose r

(* A restored machine re-installs its primitives by index and binds only
   globals the image left unbound: a program's own [assq] (and, in an
   image saved before the list searches were primitives, the prelude's
   Scheme one) keeps its binding.  A fresh system round-trips exactly. *)
let test_primitive_globals_survive_image () =
  let m = Scheme.create () in
  let fresh = Scheme.Scheme_image.save_string m in
  let r = Scheme.Scheme_image.load_string ~install:Scheme.Primitives.install fresh in
  check "fresh system: save->load->save byte-identical" true
    (String.equal fresh (Scheme.Scheme_image.save_string r));
  Machine.dispose r;
  ignore (Scheme.eval m "(define (assq x l) 'mine)");
  let s = Scheme.Scheme_image.save_string m in
  Machine.dispose m;
  let r = Scheme.Scheme_image.load_string ~install:Scheme.Primitives.install s in
  check_str "redefined assq kept" "mine" (Scheme.eval r "(assq 'a '((a . 1)))");
  check_str "memq still the primitive" "(b c)" (Scheme.eval r "(memq 'b '(a b c))");
  Machine.dispose r

let expect_section_rejected name ~section s =
  match load_scheme s with
  | () -> Alcotest.fail (name ^ ": crafted image accepted")
  | exception Image.Error msg ->
      check (name ^ ": names " ^ section) true (contains_sub msg (section ^ "["))
  | exception e ->
      Alcotest.failf "%s: expected Image.Error, got %s" name (Printexc.to_string e)

let le_str name =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length name));
  Bytes.to_string b ^ name

let scheme_sections () =
  let m = Scheme.create () in
  let s = Scheme.Scheme_image.save_string m in
  Machine.dispose m;
  (s, Image.load_string s)

(* The symbol section entry for [car] (name, then word) with its word
   moved one word into the symbol object. *)
let test_interior_symbol_rejected () =
  let s, l = scheme_sections () in
  let w = List.assoc "car" l.Image.symbols in
  let pos = find_once "car entry" s (le_str "car" ^ le64 w) + 7 in
  expect_section_rejected "interior symbol" ~section:"symbols" (interior_at ~by:1 s pos)

(* The first scheme/consts word that points at an object of more than
   one word, moved one word into it. *)
let test_interior_constant_rejected () =
  let s, l = scheme_sections () in
  let consts = (List.assoc "scheme/consts" l.Image.extras).Image.xwords in
  let spans w =
    Word.is_pair_ptr w
    || Word.is_typed_ptr w && Obj.header_len (Heap.load l.Image.heap (Word.addr w)) > 0
  in
  let rec first j = if spans consts.(j) then j else first (j + 1) in
  let j = first 0 in
  let name = le_str "scheme/consts" in
  (* The section's name, its word count, then its words. *)
  let pos = find_once "consts section" s name + String.length name + 4 + (8 * j) in
  expect_section_rejected "interior constant" ~section:"scheme/consts"
    (interior_at ~by:1 s pos)

(* The crafted clause takes one argument and reads it; its required
   count, rewritten to 0 in the image, leaves the read past the frame. *)
let test_code_local_slot_rejected () =
  let s = scheme_image_with ~required:1 (fun _ -> [| Instr.Local_ref 0; Instr.Return |]) in
  load_scheme s;
  let name = le_str "crafted" in
  (* The code's name, its clause count, then the clause's required count. *)
  let pos = find_once "crafted code" s name + String.length name + 4 in
  check_int "required count" 1 (Int32.to_int (String.get_int32_le s pos));
  match load_scheme (patched s pos "\000\000\000\000") with
  | () -> Alcotest.fail "local slot past the frame accepted"
  | exception Image.Error msg ->
      check_str "message" "gbc-image: scheme/codes: crafted: local slot 0 not in [0, 0)" msg

(* The crafted clause binds let slot 1 and reads it back; its let-slot
   count, rewritten from 2 to 1 in the image, leaves both operands past
   the frame.  A count above the clause's instruction count would let one
   call reserve a vast frame, so it is refused too. *)
let test_code_frame_rejected () =
  let s =
    scheme_image_with ~frame:2 (fun _ ->
        [| Instr.Imm (Word.of_fixnum 7); Instr.Local_set 1; Instr.Local_ref 1; Instr.Halt |])
  in
  load_scheme s;
  let name = le_str "crafted" in
  (* The code's name, its clause count, the required count, the rest flag,
     then the let-slot count. *)
  let pos = find_once "crafted code" s name + String.length name + 4 + 4 + 1 in
  check_int "let slots" 2 (Int32.to_int (String.get_int32_le s pos));
  (match load_scheme (patched s pos "\001\000\000\000") with
  | () -> Alcotest.fail "local slot past the frame accepted"
  | exception Image.Error msg ->
      check_str "message" "gbc-image: scheme/codes: crafted: local slot 1 not in [0, 1)" msg);
  match load_scheme (patched s pos "\255\255\255\127") with
  | () -> Alcotest.fail "vast frame accepted"
  | exception Image.Error msg ->
      check_str "message" "gbc-image: scheme/codes: 2147483647 let slots for 4 instructions" msg

let test_code_global_cell_rejected () =
  load_scheme (scheme_image_with (fun m -> [| Instr.Global_ref (ncells m - 1); Instr.Halt |]));
  expect_code_rejected "global-ref far out" (fun _ -> [| Instr.Global_ref 1_000_000; Instr.Halt |]);
  (* Below the cell array's capacity, where a read would give nil. *)
  expect_code_rejected "global-ref at the length" (fun m ->
      [| Instr.Global_ref (ncells m); Instr.Halt |]);
  expect_code_rejected "global-set negative" (fun _ -> [| Instr.Global_set (-1); Instr.Halt |]);
  expect_code_rejected "global-define" (fun m -> [| Instr.Global_define (ncells m); Instr.Halt |])

let test_code_constant_rejected () =
  expect_code_rejected "const past the table" (fun m ->
      [| Instr.Const (Array.length (Machine.image_consts m)); Instr.Halt |]);
  expect_code_rejected "const negative" (fun _ -> [| Instr.Const (-1); Instr.Halt |])

let test_code_closure_rejected () =
  expect_code_rejected "unknown code id" (fun m ->
      [| Instr.Make_closure { code_id = Array.length (Machine.image_codes m) + 1; nfree = 0 };
         Instr.Halt |]);
  expect_code_rejected "negative free count" (fun _ ->
      [| Instr.Make_closure { code_id = 0; nfree = -1 }; Instr.Halt |])

let test_code_jump_target_rejected () =
  expect_code_rejected "jump past the clause" (fun _ -> [| Instr.Jump 2; Instr.Halt |]);
  expect_code_rejected "branch far out" (fun _ -> [| Instr.Branch_false 99; Instr.Halt |]);
  expect_code_rejected "negative jump" (fun _ -> [| Instr.Jump (-1); Instr.Halt |])

let test_code_argument_count_rejected () =
  expect_code_rejected "negative call" (fun _ -> [| Instr.Call (-1); Instr.Halt |]);
  expect_code_rejected "negative tail call" (fun _ -> [| Instr.Tail_call (-3); Instr.Halt |])

let test_code_open_coded_op_rejected () =
  let op = { (Instr.ops.(0)) with Instr.index = Array.length Instr.ops } in
  expect_code_rejected "op past the table" (fun m ->
      [| Instr.Op { op; cell = ncells m - 1; tail = false }; Instr.Halt |]);
  expect_code_rejected "op cell" (fun m ->
      [| Instr.Op { op = Instr.ops.(0); cell = ncells m; tail = true }; Instr.Halt |])

(* A clause whose tail op pops an operand nothing pushed: it once passed
   every restore check and failed on its first call. *)
let test_code_stack_rejected () =
  expect_code_rejected "stack underflow" (fun m ->
      [| Instr.Imm (Word.of_fixnum 1);
         Instr.Op { op = Instr.ops.(0); cell = Machine.global_cell m "+"; tail = true } |])

(* An imm operand is a raw word the machine puts in acc as it is: a
   pair-tagged one would forge a pointer to whatever sits at its address. *)
let test_code_immediate_rejected () =
  let w = Word.pair_ptr 12345 in
  match load_scheme (scheme_image_with (fun _ -> [| Instr.Imm w; Instr.Halt |])) with
  | () -> Alcotest.fail "pair-tagged imm accepted"
  | exception Image.Error msg ->
      check_str "message"
        (Printf.sprintf "gbc-image: scheme/codes: crafted: raw word %d is not an immediate" w)
        msg

let () =
  Alcotest.run "image"
    [
      ( "round-trip",
        [
          Alcotest.test_case "empty heap" `Quick test_empty_heap;
          Alcotest.test_case "frame sizes" `Quick test_frame_sizes;
          Alcotest.test_case "structure + sharing" `Quick
            test_structure_and_sharing;
          Alcotest.test_case "restored heap collects" `Quick
            test_restored_heap_collects;
          Alcotest.test_case "generations + schedule" `Quick
            test_generations_and_schedule;
          Alcotest.test_case "old-to-young remembered" `Quick
            test_old_to_young_remembered;
          Alcotest.test_case "large object" `Quick test_large_object;
          Alcotest.test_case "weak + ephemeron" `Quick test_weak_and_ephemeron;
          Alcotest.test_case "cards + crossing exact" `Quick test_cards_and_crossing_exact;
          Alcotest.test_case "cursors restored" `Quick
            test_allocation_continues_in_cursor_segment;
          Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
        ] );
      ( "guardians",
        [
          Alcotest.test_case "tconc order" `Quick test_tconc_queue_order;
          Alcotest.test_case "pending order" `Quick test_guardian_pending_order;
          Alcotest.test_case "unfired registration" `Quick
            test_guardian_registration_survives;
          Alcotest.test_case "re-registration" `Quick
            test_reregistration_after_restore;
          Alcotest.test_case "guardian-of-guardian" `Quick
            test_guardian_of_guardian_chain;
        ] );
      ( "symtab",
        [ Alcotest.test_case "interned identity" `Quick test_symtab_identity ] );
      ( "scheme",
        [
          Alcotest.test_case "continuation survives an image" `Quick
            test_continuation_survives_image;
          Alcotest.test_case "primitive globals survive an image" `Quick
            test_primitive_globals_survive_image;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "every byte flip" `Quick
            test_every_single_byte_flip_rejected;
          Alcotest.test_case "truncation" `Quick test_truncation_rejected;
          Alcotest.test_case "version mismatch" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic_rejected;
          Alcotest.test_case "config mismatch" `Quick
            test_config_mismatch_rejected;
          Alcotest.test_case "heap ceiling" `Quick
            test_ceiling_too_small_rejected;
          Alcotest.test_case "save during collection" `Quick
            test_save_during_collection_rejected;
          Alcotest.test_case "save of a bad pointer" `Quick
            test_save_bad_pointer_rejected;
          Alcotest.test_case "interior root" `Quick test_interior_root_rejected;
          Alcotest.test_case "interior symbol" `Quick test_interior_symbol_rejected;
          Alcotest.test_case "interior constant" `Quick test_interior_constant_rejected;
        ]
        @ verified_load_cases
        @ [
            Alcotest.test_case "checkpoint-sized verified load" `Quick
              test_checkpoint_sized_verified_load;
          Alcotest.test_case "code: local slot" `Quick test_code_local_slot_rejected;
          Alcotest.test_case "code: frame" `Quick test_code_frame_rejected;
          Alcotest.test_case "code: global cell" `Quick test_code_global_cell_rejected;
          Alcotest.test_case "code: constant index" `Quick test_code_constant_rejected;
          Alcotest.test_case "code: closure" `Quick test_code_closure_rejected;
          Alcotest.test_case "code: jump target" `Quick test_code_jump_target_rejected;
          Alcotest.test_case "code: argument count" `Quick test_code_argument_count_rejected;
          Alcotest.test_case "code: open-coded op" `Quick test_code_open_coded_op_rejected;
          Alcotest.test_case "code: stack depth" `Quick test_code_stack_rejected;
          Alcotest.test_case "code: forged immediate" `Quick test_code_immediate_rejected;
        ] );
      ( "crc",
        [
          Alcotest.test_case "matches a reference" `Quick test_crc32_reference;
          Alcotest.test_case "4 MiB buffer" `Quick test_crc32_large;
        ] );
    ]
