(* Guardian semantics: the full Section 3 behaviour, cross-generation
   behaviour, the Section 5 representative interface, and the collector
   work counters behind the generation-friendliness claim. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Config.v ~segment_words:128 ~max_generation:3 ()
let heap () = Heap.create ~config:cfg ()
let fx = Word.of_fixnum

let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

let retrieve_all h g =
  let rec loop acc =
    match Guardian.retrieve h g with None -> List.rev acc | Some w -> loop (w :: acc)
  in
  loop []

let test_no_premature_return () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let x = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  Guardian.register h (Handle.get g) (Handle.get x);
  full_collect h;
  full_collect h;
  check "accessible object never returned" true
    (Guardian.retrieve h (Handle.get g) = None);
  Handle.free x

let test_save_and_contents () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let deep = Obj.cons h (fx 1) (Obj.cons h (fx 2) (Obj.cons h (fx 3) Word.nil)) in
  Guardian.register h (Handle.get g) deep;
  full_collect h;
  match Guardian.retrieve h (Handle.get g) with
  | Some w ->
      (* The whole structure is preserved, not just the registered cell. *)
      Alcotest.(check (list int)) "structure intact" [ 1; 2; 3 ]
        (List.map Word.to_fixnum (Obj.to_list h w))
  | None -> Alcotest.fail "expected saved object"

let test_retrieved_object_is_ordinary () =
  (* "objects that have been retrieved from a guardian have no special
     status": it can be stored, re-registered, and even become garbage
     again and be re-guarded. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 9) Word.nil);
  full_collect h;
  let saved = Handle.create h (Option.get (Guardian.retrieve h (Handle.get g))) in
  check_int "usable" 9 (Word.to_fixnum (Obj.car h (Handle.get saved)));
  (* Survives further collections while referenced. *)
  full_collect h;
  check_int "still alive" 9 (Word.to_fixnum (Obj.car h (Handle.get saved)));
  (* Re-register and drop: comes back again. *)
  Guardian.register h (Handle.get g) (Handle.get saved);
  Handle.free saved;
  full_collect h;
  check "returned again" true (Guardian.retrieve h (Handle.get g) <> None)

let test_two_guardians_same_object () =
  let h = heap () in
  let g1 = Handle.create h (Guardian.make h) in
  let g2 = Handle.create h (Guardian.make h) in
  let x = Obj.cons h (fx 5) Word.nil in
  Guardian.register h (Handle.get g1) x;
  Guardian.register h (Handle.get g2) x;
  full_collect h;
  let a = Guardian.retrieve h (Handle.get g1) in
  let b = Guardian.retrieve h (Handle.get g2) in
  check "both guardians yield it" true (a <> None && b <> None);
  check "same identity" true (Word.equal (Option.get a) (Option.get b))

let test_cyclic_structure_saved_whole () =
  (* Shared/cyclic structures: every registered piece is queued and the
     program controls processing order. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let a = Obj.cons h (fx 1) Word.nil in
  let b = Obj.cons h (fx 2) a in
  Obj.set_cdr h a b;
  Guardian.register h (Handle.get g) a;
  Guardian.register h (Handle.get g) b;
  full_collect h;
  let saved = retrieve_all h (Handle.get g) in
  check_int "both pieces" 2 (List.length saved);
  let ints = List.sort compare (List.map (fun w -> Word.to_fixnum (Obj.car h w)) saved) in
  Alcotest.(check (list int)) "pieces" [ 1; 2 ] ints;
  (* The cycle is intact across the two saved pieces. *)
  let a' = List.find (fun w -> Word.to_fixnum (Obj.car h w) = 1) saved in
  let b' = List.find (fun w -> Word.to_fixnum (Obj.car h w) = 2) saved in
  check "cycle intact" true (Word.equal (Obj.cdr h a') b' && Word.equal (Obj.cdr h b') a')

let test_guardian_chain_three_deep () =
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
  (* mid, inner, x all dropped together. *)
  full_collect h;
  let mid' = Option.get (Guardian.retrieve h (Handle.get outer)) in
  check "mid is guardian" true (Guardian.is_guardian h mid');
  let inner' = Option.get (Guardian.retrieve h mid') in
  check "inner is guardian" true (Guardian.is_guardian h inner');
  let x' = Option.get (Guardian.retrieve h inner') in
  check_int "x found" 77 (Word.to_fixnum (Obj.car h x'))

let test_representative_interface () =
  (* Section 5: register with a separate representative; the object itself
     is reclaimed, the rep is returned. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let obj = Obj.cons h (fx 1) Word.nil in
  let rep = Obj.cons h (fx 2) Word.nil in
  Guardian.register_with_rep h (Handle.get g) ~obj ~rep;
  full_collect h;
  (match Guardian.retrieve h (Handle.get g) with
  | Some w -> check_int "rep returned" 2 (Word.to_fixnum (Obj.car h w))
  | None -> Alcotest.fail "expected rep");
  (* The object was not resurrected: its words were reclaimed.  We can only
     check indirectly: nothing else is in the queue. *)
  check "queue empty" true (Guardian.retrieve h (Handle.get g) = None)

let test_representative_kept_while_object_alive () =
  (* The rep must stay alive as long as the registration is pending, even
     though nothing else references it. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let obj = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  Guardian.register_with_rep h (Handle.get g) ~obj:(Handle.get obj)
    ~rep:(Obj.cons h (fx 42) Word.nil);
  full_collect h;
  full_collect h;
  check "nothing yet" true (Guardian.retrieve h (Handle.get g) = None);
  Handle.free obj;
  full_collect h;
  (match Guardian.retrieve h (Handle.get g) with
  | Some w -> check_int "rep survived the wait" 42 (Word.to_fixnum (Obj.car h w))
  | None -> Alcotest.fail "expected rep")

let test_cross_generation_registration () =
  (* Register an already-old object: the entry climbs the protected lists
     and fires only when the object's generation is collected. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let x = Handle.create h (Obj.cons h (fx 8) Word.nil) in
  full_collect h;
  full_collect h;
  (* x now lives in an old generation. *)
  let xgen = Heap.generation_of_word h (Handle.get x) in
  check "old" true (xgen >= 2);
  Guardian.register h (Handle.get g) (Handle.get x);
  Handle.free x;
  ignore (Collector.collect h ~gen:0);
  check "minor collection cannot prove it dead" true
    (Guardian.retrieve h (Handle.get g) = None);
  full_collect h;
  check "full collection fires it" true (Guardian.retrieve h (Handle.get g) <> None)

let test_guardian_drop_cancels_group () =
  (* "Finalization of a group of objects can be canceled by simply dropping
     all references to the guardian." *)
  let h = heap () in
  let g = Guardian.make h in
  Heap.with_cell h g (fun gc ->
      for i = 0 to 9 do
        Guardian.register h (Heap.read_cell h gc) (Obj.cons h (fx i) Word.nil)
      done);
  (* Guardian and all ten objects dropped together. *)
  full_collect h;
  let stats = (Heap.stats h).Stats.last in
  check_int "no resurrections" 0 stats.Stats.guardian_resurrections;
  check_int "all entries dropped" 10 stats.Stats.guardian_entries_dropped

let test_immediates_never_returned () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (fx 42);
  Guardian.register h (Handle.get g) Word.true_;
  full_collect h;
  full_collect h;
  check "immediates are never inaccessible" true
    (Guardian.retrieve h (Handle.get g) = None)

let test_pending_survive_collection () =
  (* Objects sitting in the inaccessible group survive further collections
     until retrieved (the tconc holds them strongly). *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 3) Word.nil);
  full_collect h;
  check_int "pending" 1 (Guardian.pending_count h (Handle.get g));
  full_collect h;
  full_collect h;
  check_int "still pending" 1 (Guardian.pending_count h (Handle.get g));
  check_int "contents" 3
    (Word.to_fixnum (Obj.car h (Option.get (Guardian.retrieve h (Handle.get g)))))

let test_many_objects_fifo_like () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  for i = 0 to 99 do
    Guardian.register h (Handle.get g) (Obj.cons h (fx i) Word.nil)
  done;
  full_collect h;
  let saved = retrieve_all h (Handle.get g) in
  check_int "all saved" 100 (List.length saved);
  let ints = List.sort compare (List.map (fun w -> Word.to_fixnum (Obj.car h w)) saved) in
  Alcotest.(check (list int)) "every object once" (List.init 100 Fun.id) ints

(* The guardian pass's order is part of its behaviour: resurrections are
   queued in reverse protected-list order, generation 0's list first. *)
let test_mixed_age_retrieval_order () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let old = Handle.create h (Obj.make_vector h ~len:50 ~init:Word.nil) in
  for i = 0 to 49 do
    let x = Obj.cons h (fx i) Word.nil in
    Obj.vector_set h (Handle.get old) i x;
    Guardian.register h (Handle.get g) x
  done;
  ignore (Collector.collect h ~gen:0);
  check_int "50 entries promoted" 50 (Heap.protected_length h 1);
  Handle.free old;
  for i = 50 to 99 do
    Guardian.register h (Handle.get g) (Obj.cons h (fx i) Word.nil)
  done;
  full_collect h;
  let saved = retrieve_all h (Handle.get g) in
  Alcotest.(check (list int)) "retrieval order"
    (List.init 50 Fun.id @ List.init 50 (fun i -> 99 - i))
    (List.map (fun w -> Word.to_fixnum (Obj.car h w)) saved)

let test_promoted_entry_order () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let keep = Handle.create h (Obj.make_vector h ~len:10 ~init:Word.nil) in
  for i = 0 to 9 do
    let x = Obj.cons h (fx i) Word.nil in
    Obj.vector_set h (Handle.get keep) i x;
    Guardian.register h (Handle.get g) x
  done;
  ignore (Collector.collect h ~gen:0);
  let objs = h.Heap.protected.(1).Heap.p_objs in
  Alcotest.(check (list int)) "promoted entries, reversed"
    (List.init 10 (fun i -> 9 - i))
    (List.map (fun w -> Word.to_fixnum (Obj.car h w)) (Vec.Int.to_list objs));
  Handle.free keep

let test_waiter_order () =
  (* The inner guardian's tconc forwards only when the fixpoint saves the
     inner guardian, so its entries wait and wake in the fixpoint. *)
  let h = heap () in
  let outer = Handle.create h (Guardian.make h) in
  Heap.with_cell h (Guardian.make h) (fun innerc ->
      for i = 0 to 9 do
        Guardian.register h (Heap.read_cell h innerc) (Obj.cons h (fx i) Word.nil)
      done;
      Guardian.register h (Handle.get outer) (Heap.read_cell h innerc));
  full_collect h;
  check_int "pend checks: 11 at partition, 10 on wake" 21
    (Heap.stats h).Stats.last.Stats.guardian_pend_checks;
  let inner = Option.get (Guardian.retrieve h (Handle.get outer)) in
  let saved = retrieve_all h inner in
  Alcotest.(check (list int)) "retrieval order" (List.init 10 (fun i -> 9 - i))
    (List.map (fun w -> Word.to_fixnum (Obj.car h w)) saved)

let test_mutator_counters () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  full_collect h;
  let s = Heap.stats h in
  let polls0 = s.Stats.guardian_polls and hits0 = s.Stats.guardian_hits in
  ignore (Guardian.retrieve h (Handle.get g));
  ignore (Guardian.retrieve h (Handle.get g));
  check_int "two polls" (polls0 + 2) s.Stats.guardian_polls;
  check_int "one hit" (hits0 + 1) s.Stats.guardian_hits

let test_per_guardian_lifecycle_stats () =
  (* The telemetry layer's per-guardian metrics: registrations,
     resurrections, polls, hits, and drops, keyed by the stable id stored
     in the guardian object (so it survives copying collections). *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let other = Handle.create h (Guardian.make h) in
  check "distinct ids" true
    (Guardian.id h (Handle.get g) <> Guardian.id h (Handle.get other));
  let id_before = Guardian.id h (Handle.get g) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  Guardian.register h (Handle.get g) (Obj.cons h (fx 2) Word.nil);
  full_collect h;
  check_int "id survives collection" id_before (Guardian.id h (Handle.get g));
  ignore (Guardian.retrieve h (Handle.get g));
  ignore (Guardian.retrieve h (Handle.get g));
  ignore (Guardian.retrieve h (Handle.get g));
  let s = Guardian.stats h (Handle.get g) in
  check_int "registrations" 2 s.Telemetry.g_registrations;
  check_int "resurrections" 2 s.Telemetry.g_resurrections;
  check_int "polls" 3 s.Telemetry.g_polls;
  check_int "hits" 2 s.Telemetry.g_hits;
  (* The other guardian saw none of this. *)
  let s' = Guardian.stats h (Handle.get other) in
  check_int "other untouched" 0 s'.Telemetry.g_polls;
  check_int "other no registrations" 0 s'.Telemetry.g_registrations

let test_poll_latency () =
  (* Latency counts the collections between an entry's resurrection and
     its retrieval.  First entry: resurrected, then two more full
     collections pass before the mutator polls -> latency 2.  Second
     entry: retrieved immediately after its collection -> latency 0. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  full_collect h;
  full_collect h;
  full_collect h;
  check "late retrieval hits" true (Guardian.retrieve h (Handle.get g) <> None);
  let s = Guardian.stats h (Handle.get g) in
  check_int "latency of late retrieval" 2 s.Telemetry.g_latency_sum;
  check_int "latency max" 2 s.Telemetry.g_latency_max;
  Guardian.register h (Handle.get g) (Obj.cons h (fx 2) Word.nil);
  full_collect h;
  check "prompt retrieval hits" true (Guardian.retrieve h (Handle.get g) <> None);
  let s = Guardian.stats h (Handle.get g) in
  check_int "prompt retrieval adds no latency" 2 s.Telemetry.g_latency_sum;
  check_int "latency max unchanged" 2 s.Telemetry.g_latency_max

let test_drop_counted_per_guardian () =
  (* A dead guardian's pending entries count as drops on its stats. *)
  let h = heap () in
  let tel = Heap.telemetry h in
  let g = Guardian.make h in
  let gid = Guardian.id h g in
  Guardian.register h g (Obj.cons h (fx 1) Word.nil);
  Guardian.register h g (Obj.cons h (fx 2) Word.nil);
  (* Drop the guardian itself; both registered objects die with it. *)
  full_collect h;
  let s = Telemetry.guardian_stats tel gid in
  check_int "both entries dropped" 2 s.Telemetry.g_drops;
  check_int "no resurrections" 0 s.Telemetry.g_resurrections

let test_entries_promoted_with_object () =
  (* A live registration's protected entry moves to the target generation:
     later minor collections do not visit it (generation-friendliness). *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let x = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  Guardian.register h (Handle.get g) (Handle.get x);
  check_int "entry in gen 0" 1 (Heap.protected_length h 0);
  ignore (Collector.collect h ~gen:0);
  check_int "entry left gen 0" 0 (Heap.protected_length h 0);
  check_int "entry in gen 1" 1 (Heap.protected_length h 1);
  ignore (Collector.collect h ~gen:0);
  check_int "minor gc visits no entries" 0
    (Heap.stats h).Stats.last.Stats.protected_entries_visited;
  Handle.free x

let test_single_list_ablation () =
  (* D1: with generation_friendly_guardians = false the semantics are
     unchanged, but every minor collection revisits all entries. *)
  let config = Config.v ~max_generation:3 ~generation_friendly_guardians:false () in
  let h = Heap.create ~config () in
  let g = Handle.create h (Guardian.make h) in
  let x = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  Guardian.register h (Handle.get g) (Handle.get x);
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:0);
  check_int "entry revisited by every minor gc" 1
    (Heap.stats h).Stats.last.Stats.protected_entries_visited;
  (* Semantics still correct. *)
  Handle.free x;
  ignore (Collector.collect h ~gen:(Heap.max_generation h));
  check "still fires" true (Guardian.retrieve h (Handle.get g) <> None)

(* Property: registered objects partition exactly into (retrievable) dead
   and (silent) live across a full collection. *)
let prop_partition =
  QCheck.Test.make ~name:"dead registered objects are returned, live are not" ~count:100
    QCheck.(list bool)
    (fun keep_flags ->
      let h = heap () in
      let g = Handle.create h (Guardian.make h) in
      let kept =
        List.filteri
          (fun i keep ->
            let x = Obj.cons h (fx i) Word.nil in
            Guardian.register h (Handle.get g) x;
            if keep then ignore (Heap.new_cell h x);
            keep)
          keep_flags
      in
      full_collect h;
      let returned = retrieve_all h (Handle.get g) in
      List.length returned = List.length keep_flags - List.length kept)

(* Guardian state through a heap image (gbc-image/1): the paper's
   semantics must be indistinguishable across a checkpoint/restore. *)

let image_roundtrip h gword =
  let extras =
    [ ("g", { Gbc_image.Image.xwords = [| gword |]; xbytes = "" }) ]
  in
  let s = Gbc_image.Image.save_string ~extras h in
  let l = Gbc_image.Image.load_string ~config:(Heap.config h) s in
  (l.Gbc_image.Image.heap, (List.assoc "g" l.Gbc_image.Image.extras).Gbc_image.Image.xwords.(0))

let test_image_roundtrip_mid_lifecycle () =
  (* One object already queued, one still registered-but-live, one
     registered and dead-but-uncollected: all three states survive the
     image and play out identically on the restored heap. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  full_collect h;
  check_int "one queued pre-image" 1 (Guardian.pending_count h (Handle.get g));
  let live = Obj.cons h (fx 2) Word.nil in
  Heap.with_cell h live (fun livec ->
      Guardian.register h (Handle.get g) live;
      Guardian.register h (Handle.get g) (Obj.cons h (fx 3) Word.nil);
      let h', g' = image_roundtrip h (Handle.get g) in
      check_int "queued entry restored" 1 (Guardian.pending_count h' g');
      Heap.with_cell h' g' (fun gc ->
          (* Global root cells ride along in the image, so object 2 is
             still rooted on the restored heap (through the restored
             cell) and stays silent; 1 (queued) and 3 (dead) fire. *)
          full_collect h';
          let poll () =
            List.sort compare
              (List.map
                 (fun w -> Word.to_fixnum (Obj.car h' w))
                 (retrieve_all h' (Heap.read_cell h' gc)))
          in
          Alcotest.(check (list int)) "queued + dead fire, live silent"
            [ 1; 3 ] (poll ());
          (* Drop the restored root: the live registration now fires. *)
          Heap.free_cell h' livec;
          full_collect h';
          Alcotest.(check (list int)) "fires once its restored root dies"
            [ 2 ] (poll ())))

let test_image_roundtrip_representative () =
  (* A §5 representative registration crosses the image: the rep, not
     the object, comes back. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let obj = Obj.cons h (fx 10) Word.nil in
  let rep = Obj.cons h (fx 20) Word.nil in
  Guardian.register_with_rep h (Handle.get g) ~obj ~rep;
  let h', g' = image_roundtrip h (Handle.get g) in
  Heap.with_cell h' g' (fun gc ->
      full_collect h';
      let got =
        Option.get (Guardian.retrieve h' (Heap.read_cell h' gc))
      in
      check_int "representative returned post-restore" 20
        (Word.to_fixnum (Obj.car h' got)))

let () =
  Alcotest.run "guardian"
    [
      ( "semantics",
        [
          Alcotest.test_case "no premature return" `Quick test_no_premature_return;
          Alcotest.test_case "whole structure saved" `Quick test_save_and_contents;
          Alcotest.test_case "no special status" `Quick test_retrieved_object_is_ordinary;
          Alcotest.test_case "two guardians" `Quick test_two_guardians_same_object;
          Alcotest.test_case "cycles saved whole" `Quick test_cyclic_structure_saved_whole;
          Alcotest.test_case "guardian chain x3" `Quick test_guardian_chain_three_deep;
          Alcotest.test_case "drop cancels group" `Quick test_guardian_drop_cancels_group;
          Alcotest.test_case "immediates" `Quick test_immediates_never_returned;
          Alcotest.test_case "pending survive" `Quick test_pending_survive_collection;
          Alcotest.test_case "100 objects" `Quick test_many_objects_fifo_like;
          Alcotest.test_case "mixed-age retrieval order" `Quick
            test_mixed_age_retrieval_order;
          Alcotest.test_case "waiter order" `Quick test_waiter_order;
        ] );
      ( "representative (§5)",
        [
          Alcotest.test_case "rep returned" `Quick test_representative_interface;
          Alcotest.test_case "rep kept alive" `Quick test_representative_kept_while_object_alive;
        ] );
      ( "generations",
        [
          Alcotest.test_case "cross-generation" `Quick test_cross_generation_registration;
          Alcotest.test_case "entries promoted" `Quick test_entries_promoted_with_object;
          Alcotest.test_case "single-list ablation (D1)" `Quick test_single_list_ablation;
          Alcotest.test_case "promoted entry order" `Quick test_promoted_entry_order;
        ] );
      ( "counters",
        [
          Alcotest.test_case "mutator counters" `Quick test_mutator_counters;
          Alcotest.test_case "per-guardian lifecycle" `Quick
            test_per_guardian_lifecycle_stats;
          Alcotest.test_case "poll latency" `Quick test_poll_latency;
          Alcotest.test_case "drops per guardian" `Quick
            test_drop_counted_per_guardian;
        ] );
      ( "heap image",
        [
          Alcotest.test_case "mid-lifecycle round-trip" `Quick
            test_image_roundtrip_mid_lifecycle;
          Alcotest.test_case "representative round-trip" `Quick
            test_image_roundtrip_representative;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_partition ]);
    ]
