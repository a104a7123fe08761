(* The generational collector: promotion, remembered sets, garbage
   retention behaviour, policy, and a random-graph preservation property. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Config.v ~segment_words:128 ~max_generation:3 ()

let fx = Word.of_fixnum

let test_promotion_ladder () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.cons h (fx 1) (fx 2)) in
  let gen () = Heap.generation_of_word h (Heap.read_cell h c) in
  check_int "born in 0" 0 (gen ());
  ignore (Collector.collect h ~gen:0);
  check_int "promoted to 1" 1 (gen ());
  ignore (Collector.collect h ~gen:0);
  check_int "gen-0 collection leaves gen 1 alone" 1 (gen ());
  ignore (Collector.collect h ~gen:1);
  check_int "promoted to 2" 2 (gen ());
  ignore (Collector.collect h ~gen:3);
  check_int "capped at max" 3 (gen ());
  ignore (Collector.collect h ~gen:3);
  check_int "stays at max" 3 (gen ());
  check_int "still intact" 1 (Word.to_fixnum (Obj.car h (Heap.read_cell h c)))

let test_uncollected_generations_untouched () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.cons h (fx 1) (fx 2)) in
  ignore (Collector.collect h ~gen:0);
  let old_addr = Heap.read_cell h c in
  ignore (Collector.collect h ~gen:0);
  check "old object did not move" true (Word.equal old_addr (Heap.read_cell h c))

let test_garbage_in_old_generation () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.cons h (fx 1) Word.nil) in
  (* Promote garbage along with the live pair. *)
  let g = Heap.new_cell h (Obj.make_vector h ~len:50 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  Heap.free_cell h g;
  let live_before = Heap.live_words h in
  ignore (Collector.collect h ~gen:2);
  let live_after = Heap.live_words h in
  check "old garbage reclaimed" true (live_after < live_before);
  check_int "live pair kept" 1 (Word.to_fixnum (Obj.car h (Heap.read_cell h c)))

let test_old_to_young_chain () =
  let h = Heap.create ~config:cfg () in
  (* old vector -> young pair -> younger pair *)
  let vc = Heap.new_cell h (Obj.make_vector h ~len:2 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  check_int "vector old" 2 (Heap.generation_of_word h v);
  let inner = Obj.cons h (fx 42) Word.nil in
  let outer = Obj.cons h (fx 41) inner in
  Obj.vector_set h v 0 outer;
  ignore (Collector.collect h ~gen:0);
  let v = Heap.read_cell h vc in
  let outer = Obj.vector_ref h v 0 in
  check_int "outer" 41 (Word.to_fixnum (Obj.car h outer));
  check_int "inner" 42 (Word.to_fixnum (Obj.car h (Obj.cdr h outer)));
  (* The chain was promoted to generation 1. *)
  check_int "chain promoted" 1 (Heap.generation_of_word h outer)

let test_dirty_segment_recomputed () =
  let h = Heap.create ~config:cfg () in
  let vc = Heap.new_cell h (Obj.make_vector h ~len:1 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  Obj.vector_set h v 0 (Obj.cons h (fx 1) Word.nil);
  (* First minor GC scans the dirty segment... *)
  ignore (Collector.collect h ~gen:0);
  let first = (Heap.stats h).Stats.last.Stats.dirty_segments_scanned in
  check "dirty scanned" true (first >= 1);
  (* ...after which the segment no longer refers to generation 0 (the pair
     moved up), so the next minor GC does not scan it again. *)
  ignore (Collector.collect h ~gen:0);
  let second = (Heap.stats h).Stats.last.Stats.dirty_segments_scanned in
  check_int "clean after recompute" 0 second

let test_sharing_preserved () =
  let h = Heap.create ~config:cfg () in
  let shared = Obj.cons h (fx 7) Word.nil in
  let a = Obj.cons h shared shared in
  let c = Heap.new_cell h a in
  ignore (Collector.collect h ~gen:0);
  let a = Heap.read_cell h c in
  check "sharing preserved (eq)" true (Word.equal (Obj.car h a) (Obj.cdr h a))

let test_cycle_preserved () =
  let h = Heap.create ~config:cfg () in
  let a = Obj.cons h (fx 1) Word.nil in
  let b = Obj.cons h (fx 2) a in
  Obj.set_cdr h a b;
  let c = Heap.new_cell h a in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  let a = Heap.read_cell h c in
  let b = Obj.cdr h a in
  check_int "a" 1 (Word.to_fixnum (Obj.car h a));
  check_int "b" 2 (Word.to_fixnum (Obj.car h b));
  check "cycle closed" true (Word.equal (Obj.cdr h b) a)

let test_copy_edge_cases () =
  (* One collection copies a padded zero-field object, a data-space
     string, a typed object ending on its segment's last word and an
     oversized single-object vector.  Garbage collected first leaves
     stale words, which parse as long headers, in the recycled segments
     the copies land in: a missing pad word would show. *)
  let h = Heap.create ~config:cfg () in
  for _ = 1 to 64 do
    ignore (Obj.make_vector h ~len:31 ~init:(fx (1 lsl 20)))
  done;
  ignore (Collector.collect h ~gen:0);
  let a = Obj.make_vector h ~len:63 ~init:Word.nil in
  let b = Obj.make_vector h ~len:63 ~init:Word.nil in
  check_int "b ends on the segment's last word" 128
    (Heap.off_of_addr (Word.addr b) + 64);
  for i = 0 to 62 do
    Obj.vector_set h a i (fx i);
    Obj.vector_set h b i (Obj.cons h (fx i) Word.nil)
  done;
  let empty = Obj.make_vector h ~len:0 ~init:Word.nil in
  let str = Obj.string_of_ocaml h "hello, world" in
  let big = Obj.make_vector h ~len:300 ~init:Word.nil in
  for i = 0 to 299 do
    Obj.vector_set h big i (if i mod 2 = 0 then fx i else Obj.cons h (fx i) Word.nil)
  done;
  let cells = List.map (Heap.new_cell h) [ empty; a; b; str; big ] in
  ignore (Collector.collect h ~gen:0);
  match List.map (Heap.read_cell h) cells with
  | [ empty; a; b; str; big ] ->
      for i = 0 to 62 do
        check_int "a field" i (Word.to_fixnum (Obj.vector_ref h a i));
        check_int "b field" i (Word.to_fixnum (Obj.car h (Obj.vector_ref h b i)))
      done;
      check "empty vector" true (Obj.is_vector h empty && Obj.vector_length h empty = 0);
      Alcotest.(check string) "string" "hello, world" (Obj.string_to_ocaml h str);
      check_int "big length" 300 (Obj.vector_length h big);
      for i = 0 to 299 do
        let v = Obj.vector_ref h big i in
        check_int "big field" i
          (Word.to_fixnum (if i mod 2 = 0 then v else Obj.car h v))
      done;
      check_int "verify clean" 0 (List.length (Verify.verify h))
  | _ -> assert false

let test_corrupt_forward_period () =
  (* The seeded forwarding bug fires on every kth forward, exactly. *)
  let k = 3 in
  let config = Config.v ~segment_words:128 ~max_generation:3 () in
  let h = Heap.create ~config () in
  (Heap.faults h).Heap.corrupt_forward_period <- k;
  for i = 0 to 9 do
    ignore (Heap.new_cell h (Obj.cons h (fx i) (fx i)))
  done;
  ignore (Collector.collect h ~gen:0);
  let n = (Heap.stats h).Stats.last.Stats.objects_copied in
  check_int "objects forwarded" 10 n;
  check_int "faults injected" (n / k) (Heap.faults h).Heap.injected

let test_copy_work_proportional_to_live () =
  (* E7 foundation: the same live set with 10x the garbage costs the same
     copying work. *)
  let run ~garbage =
    let h = Heap.create ~config:cfg () in
    let keep = Heap.new_cell h Word.nil in
    for i = 0 to 99 do
      Heap.write_cell h keep (Obj.cons h (fx i) (Heap.read_cell h keep))
    done;
    for i = 0 to garbage - 1 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    ignore (Collector.collect h ~gen:0);
    (Heap.stats h).Stats.last.Stats.words_copied
  in
  let small = run ~garbage:100 and large = run ~garbage:10000 in
  check_int "copy work independent of garbage" small large

let test_stats_accumulate () =
  let h = Heap.create ~config:cfg () in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  check_int "three collections" 3 (Heap.stats h).Stats.total.Stats.collections

(* The volume schedule's bookkeeping: a collection of [g] empties the
   promoted counts of [0..g] and credits its copied words to the target,
   unless the target is [g] itself (the oldest generation). *)
let test_promoted_words () =
  let h = Heap.create ~config:cfg () in
  let promoted g = h.Heap.promoted_words.(g) in
  let c = Heap.new_cell h (Obj.make_vector h ~len:20 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:0);
  check_int "gen 0 -> 1 credits 1" (Heap.stats h).Stats.last.Stats.words_copied (promoted 1);
  check_int "21 words promoted" 21 (promoted 1);
  ignore (Collector.collect h ~gen:1);
  check_int "gen 1 emptied" 0 (promoted 1);
  check_int "gen 1 -> 2 credits 2" 21 (promoted 2);
  ignore (Collector.collect h ~gen:3);
  ignore (Collector.collect h ~gen:3);
  check "survivor in the oldest generation" true
    (Heap.generation_of_word h (Heap.read_cell h c) = 3);
  check_int "oldest into itself is not promotion" 0 (promoted 3);
  Array.iter (check_int "all emptied" 0) h.Heap.promoted_words

(* A request collects generation 1 exactly when generation 1's promoted
   words are over one threshold, whatever its value. *)
let test_collect_auto_schedule () =
  let h = Heap.create ~config:(Config.v ~gen0_trigger_words:256 ~max_generation:3 ()) () in
  let keep = Heap.new_cell h Word.nil in
  let young = ref [] and older = ref [] in
  for i = 0 to 399 do
    for _ = 0 to 9 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    Heap.write_cell h keep (Obj.cons h (fx i) (Heap.read_cell h keep));
    let before = h.Heap.promoted_words.(1) in
    let o = Runtime.collect_auto h in
    if o.Collector.generation = 0 then young := before :: !young else older := before :: !older
  done;
  check "some requests collect only generation 0" true (!young <> []);
  check "some requests collect generation 1" true (!older <> []);
  check "one threshold separates them" true
    (List.fold_left max 0 !young < List.fold_left min max_int !older);
  check_int "the kept list survives" 400
    (let rec len w n = if Word.is_nil w then n else len (Obj.cdr h w) (n + 1) in
     len (Heap.read_cell h keep) 0)

(* A live set already in the oldest generation is never promotion: requests
   that promote nothing leave it alone, however many there are. *)
let test_old_live_set_not_recollected () =
  let h = Heap.create ~config:(Config.v ~gen0_trigger_words:256 ~max_generation:3 ()) () in
  let big = Heap.new_cell h Word.nil in
  for i = 0 to 9_999 do
    Heap.write_cell h big (Obj.cons h (fx i) (Heap.read_cell h big))
  done;
  ignore (Collector.collect h ~gen:3);
  let copied_before = (Heap.stats h).Stats.total.Stats.words_copied in
  let gens = ref [] in
  for i = 0 to 199 do
    for _ = 0 to 99 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    gens := (Runtime.collect_auto h).Collector.generation :: !gens
  done;
  check "every request collects generation 0 only" true (List.for_all (( = ) 0) !gens);
  check_int "the 20k-word live set is never copied again" copied_before
    (Heap.stats h).Stats.total.Stats.words_copied

let test_safepoint_triggers () =
  let config = Config.v ~gen0_trigger_words:256 () in
  let h = Heap.create ~config () in
  let before = (Heap.stats h).Stats.total.Stats.collections in
  for i = 0 to 999 do
    ignore (Obj.cons h (fx i) Word.nil);
    Runtime.safepoint h
  done;
  check "collections happened" true ((Heap.stats h).Stats.total.Stats.collections > before)

let test_collect_request_handler () =
  let config = Config.v ~gen0_trigger_words:256 () in
  let h = Heap.create ~config () in
  let calls = ref 0 in
  Runtime.set_collect_request_handler h
    (Some
       (fun h ->
         incr calls;
         ignore (Runtime.collect_auto h)));
  for i = 0 to 999 do
    ignore (Obj.cons h (fx i) Word.nil);
    Runtime.safepoint h
  done;
  check "handler invoked" true (!calls > 0);
  check_int "handler controls collection count" !calls
    (Heap.stats h).Stats.total.Stats.collections

let test_segment_reuse () =
  let h = Heap.create ~config:cfg () in
  for _round = 0 to 9 do
    for i = 0 to 999 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    ignore (Collector.collect h ~gen:0)
  done;
  (* Freed segments are recycled rather than accumulating. *)
  check "bounded segment count" true (Heap.live_segments h < 100)

(* A large object copied by full collections alternates between two
   OCaml arrays, and keeps its contents, rather than getting a new array
   per copy. *)
let test_large_segment_reuse () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.make_vector h ~len:1000 ~init:(fx 7)) in
  let array_of () = h.Heap.segs.(Heap.seg_of_addr (Word.addr (Heap.read_cell h c))) in
  let full () = ignore (Collector.collect h ~gen:3) in
  full ();
  let first = array_of () in
  full ();
  check "next copy in another array" false (array_of () == first);
  full ();
  check "third copy back in the first array" true (array_of () == first);
  let v = Heap.read_cell h c in
  check_int "length kept" 1000 (Obj.vector_length h v);
  check_int "contents kept" 7 (Word.to_fixnum (Obj.vector_ref h v 999))

(* The numbers [Stats.pp_counters] prints, one per counter field. *)
let counter_values c =
  Format.asprintf "%a" Stats.pp_counters c
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         int_of_string (List.hd (List.rev (String.split_on_char ' ' line))))

(* Every counter of [last] must be folded into [total].  The churn touches
   every counter (kept, resurrected and dropped guardian entries, a broken
   weak pointer and ephemeron, an old-to-young store into a dirty card), so
   a field missing from the fold shows up as a mismatch. *)
let test_total_folds_every_counter () =
  let h = Heap.create ~config:(Config.v ~segment_words:128 ~card_words:8 ()) () in
  let s = Heap.stats h in
  let pp c = Format.asprintf "%a" Stats.pp_counters c in
  let old = Heap.new_cell h (Obj.make_vector h ~len:64 ~init:Word.nil) in
  let guardian = Heap.new_cell h (Guardian.make h) in
  let churn () =
    let g = Heap.read_cell h guardian and v = Heap.read_cell h old in
    let kept = Obj.cons h (fx 1) Word.nil in
    Obj.vector_set h v 0 kept;
    Guardian.register h g kept;
    Guardian.register h g (Obj.cons h (fx 2) Word.nil);
    Guardian.register h (Guardian.make h) (Obj.cons h (fx 3) Word.nil);
    Obj.vector_set h v 1 (Obj.weak_cons h (Obj.cons h (fx 4) Word.nil) Word.nil);
    Obj.vector_set h v 2 (Ephemeron.cons h (Obj.cons h (fx 5) Word.nil) (fx 6))
  in
  churn ();
  ignore (Collector.collect h ~gen:0);
  Alcotest.(check string) "first collection: total = last" (pp s.Stats.last) (pp s.Stats.total);
  let sum = ref (counter_values s.Stats.total) in
  List.iter
    (fun gen ->
      churn ();
      ignore (Collector.collect h ~gen);
      sum := List.map2 ( + ) !sum (counter_values s.Stats.last);
      Alcotest.(check (list int)) "total = sum of lasts" !sum (counter_values s.Stats.total))
    [ 0; 0; 1; 0; 2 ];
  check "every counter exercised" true (List.for_all (fun n -> n > 0) !sum)

(* The counter table covers every field: [Stats.rows] sets and reads each
   field of [counters] exactly once, and [Stats.session_rows] reads each
   integer field of [Stats.t] exactly once.  The project's [Obj] shadows
   Stdlib's. *)
let test_counter_table_covers_every_field () =
  let module O = Stdlib.Obj in
  let fields r : int list = List.init (O.size r) (fun i -> O.obj (O.field r i)) in
  let c = Stats.zero () in
  check_int "one row per counters field" (O.size (O.repr c)) (Array.length Stats.rows);
  Array.iteri (fun i r -> r.Stats.set c (i + 1)) Stats.rows;
  let expected = List.init (Array.length Stats.rows) (fun i -> i + 1) in
  Alcotest.(check (list int)) "each row sets its own field" expected
    (List.sort compare (fields (O.repr c)));
  Array.iteri (fun i r -> check_int r.Stats.name (i + 1) (r.Stats.get c)) Stats.rows;
  let s = Stats.create () in
  (* Fields 0 and 1 are [last] and [total]; the rest are session counters. *)
  let n = O.size (O.repr s) - 2 in
  check_int "one row per session field" n (Array.length Stats.session_rows);
  for i = 0 to n - 1 do
    O.set_field (O.repr s) (i + 2) (O.repr (i + 1))
  done;
  Alcotest.(check (list int)) "each session row reads its own field"
    (List.init n (fun i -> i + 1))
    (List.sort compare (Array.to_list (Array.map (fun (_, get) -> get s) Stats.session_rows)));
  let names =
    Array.to_list (Array.map (fun r -> r.Stats.name) Stats.rows)
    @ Array.to_list (Array.map fst Stats.session_rows)
  in
  check_int "export names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* [last] describes the last collection: mutator allocation after it,
   even past a segment, leaves it as the collection left it. *)
let test_last_unchanged_by_mutator () =
  let h = Heap.create ~config:cfg () in
  ignore (Collector.collect h ~gen:0);
  let s = Heap.stats h in
  let at_end = Stats.copy s.Stats.last in
  let segs = Heap.live_segments h in
  for i = 1 to 200 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  check "allocation acquired segments" true (Heap.live_segments h > segs);
  Alcotest.(check (list (pair string int))) "last as at collection end"
    (Stats.to_list at_end) (Stats.to_list s.Stats.last)

exception Scanner_failed

(* A collection aborted by an exception poisons the heap: the exception
   propagates once, and every later collection, safepoint and image save
   raises [Heap.Poisoned] naming it instead of finding the heap wedged. *)
let test_raising_scanner_poisons_heap () =
  let h = Heap.create ~config:(Config.v ~gen0_trigger_words:256 ()) () in
  let armed = ref true in
  ignore
    (Heap.add_scanner h (fun _ ->
         if !armed then begin
           armed := false;
           raise Scanner_failed
         end));
  Alcotest.check_raises "the scanner's exception propagates" Scanner_failed (fun () ->
      ignore (Collector.collect h ~gen:0));
  let poisoned what f =
    match f () with
    | () -> Alcotest.failf "%s: returned normally" what
    | exception Heap.Poisoned e ->
        Alcotest.(check string) (what ^ " names the exception")
          (Printexc.to_string Scanner_failed) e
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  poisoned "collect" (fun () -> ignore (Collector.collect h ~gen:0));
  poisoned "safepoint" (fun () ->
      for i = 0 to 999 do
        ignore (Obj.cons h (fx i) Word.nil);
        Runtime.safepoint h
      done);
  poisoned "image save" (fun () -> ignore (Gbc_image.Image.save_string h))

(* ------------------------------------------------------------------ *)
(* Random graph preservation                                           *)

type shape =
  | Leaf of int
  | SChar of char
  | SNil
  | SBool of bool
  | SCons of shape * shape
  | SVec of shape list
  | SStr of string

let shape_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Leaf i) small_signed_int;
                map (fun c -> SChar c) printable;
                return SNil;
                map (fun b -> SBool b) bool;
                map (fun s -> SStr s) (small_string ~gen:printable);
              ]
          else
            frequency
              [
                (3, map2 (fun a b -> SCons (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map (fun l -> SVec l) (list_size (int_bound 5) (self (n / 3))));
                (1, map (fun i -> Leaf i) small_signed_int);
              ])
        n)

let rec build h = function
  | Leaf i -> Word.of_fixnum i
  | SChar c -> Word.of_char c
  | SNil -> Word.nil
  | SBool b -> Word.of_bool b
  | SStr s -> Obj.string_of_ocaml h s
  | SCons (a, d) ->
      let dw = build h d in
      Heap.with_cell h dw (fun c ->
          let aw = build h a in
          Obj.cons h aw (Heap.read_cell h c))
  | SVec parts ->
      let v = Obj.make_vector h ~len:(List.length parts) ~init:Word.nil in
      Heap.with_cell h v (fun c ->
          List.iteri
            (fun i p ->
              let w = build h p in
              Obj.vector_set h (Heap.read_cell h c) i w)
            parts;
          Heap.read_cell h c)

let rec matches h shape w =
  match shape with
  | Leaf i -> Word.is_fixnum w && Word.to_fixnum w = i
  | SChar c -> Word.is_char w && Word.to_char w = c
  | SNil -> Word.is_nil w
  | SBool b -> Word.equal w (Word.of_bool b)
  | SStr s -> Obj.is_string h w && Obj.string_to_ocaml h w = s
  | SCons (a, d) ->
      Word.is_pair_ptr w && matches h a (Obj.car h w) && matches h d (Obj.cdr h w)
  | SVec parts ->
      Obj.is_vector h w
      && Obj.vector_length h w = List.length parts
      && List.for_all2 (fun p i -> matches h p (Obj.vector_ref h w i))
           parts
           (List.init (List.length parts) Fun.id)

let prop_graph_preserved =
  QCheck.Test.make ~name:"random graphs survive arbitrary collections" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_bound 6) shape_gen) (list_size (int_bound 8) (int_bound 3))))
    (fun (shapes, gens) ->
      let h = Heap.create ~config:cfg () in
      let cells = List.map (fun s -> Heap.new_cell h (build h s)) shapes in
      (* Interleave garbage and collections of random generations. *)
      List.iter
        (fun g ->
          for i = 0 to 99 do
            ignore (Obj.cons h (fx i) Word.nil)
          done;
          ignore (Collector.collect h ~gen:g);
          Verify.check_exn h)
        gens;
      List.for_all2 (fun s c -> matches h s (Heap.read_cell h c)) shapes cells)

let prop_garbage_fully_reclaimed =
  QCheck.Test.make ~name:"full collection reclaims everything unreachable" ~count:50
    QCheck.(int_range 1 500)
    (fun n ->
      let h = Heap.create ~config:cfg () in
      for i = 0 to n - 1 do
        ignore (Obj.make_vector h ~len:(1 + (i mod 7)) ~init:Word.nil)
      done;
      ignore (Collector.collect h ~gen:3);
      ignore (Collector.collect h ~gen:3);
      Heap.live_words h = 0)

let () =
  Alcotest.run "collector"
    [
      ( "generations",
        [
          Alcotest.test_case "promotion ladder" `Quick test_promotion_ladder;
          Alcotest.test_case "old gens untouched" `Quick test_uncollected_generations_untouched;
          Alcotest.test_case "old garbage" `Quick test_garbage_in_old_generation;
          Alcotest.test_case "old-to-young chain" `Quick test_old_to_young_chain;
          Alcotest.test_case "dirty recompute" `Quick test_dirty_segment_recomputed;
        ] );
      ( "structure",
        [
          Alcotest.test_case "sharing" `Quick test_sharing_preserved;
          Alcotest.test_case "cycles" `Quick test_cycle_preserved;
          Alcotest.test_case "copy edge cases" `Quick test_copy_edge_cases;
          Alcotest.test_case "corrupt-forward period" `Quick test_corrupt_forward_period;
        ] );
      ( "policy",
        [
          Alcotest.test_case "copy work ∝ live" `Quick test_copy_work_proportional_to_live;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "total folds every counter" `Quick test_total_folds_every_counter;
          Alcotest.test_case "counter table covers every field" `Quick
            test_counter_table_covers_every_field;
          Alcotest.test_case "last unchanged by mutator" `Quick test_last_unchanged_by_mutator;
          Alcotest.test_case "raising scanner poisons" `Quick test_raising_scanner_poisons_heap;
          Alcotest.test_case "schedule" `Quick test_collect_auto_schedule;
          Alcotest.test_case "promoted words" `Quick test_promoted_words;
          Alcotest.test_case "old live set not re-collected" `Quick
            test_old_live_set_not_recollected;
          Alcotest.test_case "safepoint trigger" `Quick test_safepoint_triggers;
          Alcotest.test_case "collect-request handler" `Quick test_collect_request_handler;
          Alcotest.test_case "segment reuse" `Quick test_segment_reuse;
          Alcotest.test_case "large segment reuse" `Quick test_large_segment_reuse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_graph_preserved; prop_garbage_fully_reclaimed ] );
    ]
