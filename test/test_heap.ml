(* Heap substrate: segments, spaces, allocation, root cells, handles,
   object layer accessors. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_config = Config.v ~segment_words:64 ~max_generation:3 ()

let test_segment_assignment () =
  let h = Heap.create ~config:small_config () in
  let p = Obj.cons h Word.nil Word.nil in
  let info = Heap.info_of_word h p in
  check "pair space" true (info.Heap.space = Space.Pair);
  check_int "generation 0" 0 info.Heap.generation;
  let v = Obj.make_vector h ~len:3 ~init:Word.nil in
  check "typed space" true ((Heap.info_of_word h v).Heap.space = Space.Typed);
  let s = Obj.string_of_ocaml h "abc" in
  check "data space" true ((Heap.info_of_word h s).Heap.space = Space.Data);
  let w = Obj.weak_cons h Word.nil Word.nil in
  check "weak space" true ((Heap.info_of_word h w).Heap.space = Space.Weak)

let test_many_segments () =
  let h = Heap.create ~config:small_config () in
  (* Fill far more than one segment per space. *)
  let keep = Heap.new_cell h Word.nil in
  for i = 0 to 999 do
    Heap.write_cell h keep (Obj.cons h (Word.of_fixnum i) (Heap.read_cell h keep))
  done;
  check "many segments" true (Heap.live_segments h > 10);
  (* The list survives intact. *)
  let l = Heap.read_cell h keep in
  check_int "length" 1000 (Obj.list_length h l);
  check_int "first" 999 (Word.to_fixnum (Obj.car h l))

let test_large_object () =
  let h = Heap.create ~config:small_config () in
  (* Vector bigger than a standard segment (64 words). *)
  let v = Obj.make_vector h ~len:500 ~init:(Word.of_fixnum 7) in
  check_int "len" 500 (Obj.vector_length h v);
  check "large flag" true (Heap.info_of_word h v).Heap.large;
  Obj.vector_set h v 499 (Word.of_fixnum 9);
  check_int "last" 9 (Word.to_fixnum (Obj.vector_ref h v 499));
  (* Large objects survive collection. *)
  let c = Heap.new_cell h v in
  ignore (Collector.collect h ~gen:0);
  let v = Heap.read_cell h c in
  check_int "after gc len" 500 (Obj.vector_length h v);
  check_int "after gc [0]" 7 (Word.to_fixnum (Obj.vector_ref h v 0));
  check_int "after gc [499]" 9 (Word.to_fixnum (Obj.vector_ref h v 499))

let test_oversized_rejected () =
  let h = Heap.create () in
  Alcotest.check_raises "too big" (Invalid_argument "object larger than the maximum segment size")
    (fun () -> ignore (Obj.make_vector h ~len:(1 lsl 21) ~init:Word.nil))

(* The per-generation segment lists stay exact across collections of
   every generation, with churn that frees standard and large segments:
   each id is live, of the list's generation, and listed once, and every
   live segment is listed. *)
let test_generation_lists_exact () =
  let h = Heap.create ~config:small_config () in
  let keep = Heap.new_cell h (Obj.make_vector h ~len:16 ~init:Word.nil) in
  let bad = ref 0 in
  for i = 1 to 30 do
    for j = 0 to 40 do
      let l = Obj.list_of h (List.init ((j mod 7) + 1) Word.of_fixnum) in
      if j mod 5 = 0 then Obj.vector_set h (Heap.read_cell h keep) ((i + j) mod 16) l
    done;
    ignore (Obj.make_vector h ~len:100 ~init:Word.nil);
    ignore (Collector.collect h ~gen:[| 0; 0; 1; 0; 2; 0; 1; 3 |].(i mod 8));
    let listed = ref 0 in
    for g = 0 to Heap.max_generation h do
      let seen = Hashtbl.create 16 in
      Vec.Int.iter h.Heap.gen_segs.(g) ~f:(fun seg ->
          incr listed;
          let si = Heap.info h seg in
          if (not si.Heap.live) || si.Heap.generation <> g || Hashtbl.mem seen seg then
            incr bad;
          Hashtbl.replace seen seg ())
    done;
    check_int "every live segment listed" (Heap.live_segments h) !listed
  done;
  check_int "stale or duplicate ids" 0 !bad

let test_root_cells () =
  let h = Heap.create () in
  let a = Heap.new_cell h (Word.of_fixnum 1) in
  let b = Heap.new_cell h (Word.of_fixnum 2) in
  check_int "a" 1 (Word.to_fixnum (Heap.read_cell h a));
  check_int "b" 2 (Word.to_fixnum (Heap.read_cell h b));
  Heap.free_cell h a;
  let c = Heap.new_cell h (Word.of_fixnum 3) in
  check_int "slot reused" a c;
  check_int "b intact" 2 (Word.to_fixnum (Heap.read_cell h b))

let test_handles () =
  let h = Heap.create () in
  let x = Handle.create h (Obj.cons h (Word.of_fixnum 1) Word.nil) in
  ignore (Collector.collect h ~gen:0);
  check_int "tracked across gc" 1 (Word.to_fixnum (Obj.car h (Handle.get x)));
  Handle.free x;
  Handle.free x (* idempotent *);
  Alcotest.check_raises "read after free" (Invalid_argument "Handle.get: handle already freed")
    (fun () -> ignore (Handle.get x));
  Handle.with_handle h (Word.of_fixnum 5) (fun t ->
      check_int "scoped" 5 (Word.to_fixnum (Handle.get t)))

let test_with_cell () =
  let h = Heap.create () in
  let result =
    Heap.with_cell h (Obj.cons h (Word.of_fixnum 9) Word.nil) (fun c ->
        ignore (Collector.collect h ~gen:0);
        Word.to_fixnum (Obj.car h (Heap.read_cell h c)))
  in
  check_int "with_cell across gc" 9 result

let test_strings_and_bytevectors () =
  let h = Heap.create () in
  let s = Obj.make_string h ~len:5 ~fill:'x' in
  Alcotest.(check string) "fill" "xxxxx" (Obj.string_to_ocaml h s);
  Obj.string_set h s 0 'A';
  Alcotest.(check string) "set" "Axxxx" (Obj.string_to_ocaml h s);
  let bv = Obj.make_bytevector h ~len:4 ~fill:0 in
  Obj.bytevector_set h bv 2 255;
  check_int "bv" 255 (Obj.bytevector_ref h bv 2);
  check_int "bv len" 4 (Obj.bytevector_length h bv)

let test_boxes_records_flonums () =
  let h = Heap.create () in
  let b = Obj.make_box h (Word.of_fixnum 1) in
  check "box?" true (Obj.is_box h b);
  Obj.box_set h b (Word.of_fixnum 2);
  check_int "box set" 2 (Word.to_fixnum (Obj.box_ref h b));
  let r = Obj.make_record h ~tag:(Word.of_fixnum 99) ~len:2 ~init:Word.nil in
  check "record?" true (Obj.is_record h r);
  check_int "tag" 99 (Word.to_fixnum (Obj.record_tag h r));
  check_int "len" 2 (Obj.record_length h r);
  Obj.record_set h r 1 (Word.of_fixnum 5);
  check_int "field" 5 (Word.to_fixnum (Obj.record_ref h r 1));
  let f = Obj.make_flonum h 3.14159 in
  check "flonum?" true (Obj.is_flonum h f);
  Alcotest.(check (float 1e-12)) "value" 3.14159 (Obj.flonum_value h f);
  List.iter
    (fun x ->
      let f = Obj.make_flonum h x in
      check "roundtrip" true (Obj.flonum_value h f = x))
    [ 0.0; -0.0; 1.5; -1e300; infinity; neg_infinity; 1e-300 ]

let test_scanner_registration () =
  let h = Heap.create () in
  let my_root = ref (Obj.cons h (Word.of_fixnum 11) Word.nil) in
  let id = Heap.add_scanner h (fun rewrite -> my_root := rewrite !my_root) in
  ignore (Collector.collect h ~gen:0);
  check_int "scanner kept object" 11 (Word.to_fixnum (Obj.car h !my_root));
  Heap.remove_scanner h id;
  (* Without the scanner the object is garbage; nothing to assert beyond no
     crash. *)
  ignore (Collector.collect h ~gen:0)

let test_alloc_forbidden () =
  let h = Heap.create () in
  h.Heap.alloc_forbidden <- true;
  Alcotest.check_raises "forbidden" Heap.Allocation_forbidden (fun () ->
      ignore (Obj.cons h Word.nil Word.nil));
  h.Heap.alloc_forbidden <- false;
  ignore (Obj.cons h Word.nil Word.nil)

let test_live_words_accounting () =
  let h = Heap.create () in
  let before = Heap.live_words h in
  ignore (Obj.make_vector h ~len:10 ~init:Word.nil);
  check_int "vector words" (before + 11) (Heap.live_words h);
  ignore (Obj.cons h Word.nil Word.nil);
  check_int "pair words" (before + 13) (Heap.live_words h)

let test_heap_limit () =
  (* A 4-segment budget: unlimited garbage survives with collections, but
     retaining everything overflows. *)
  let config = Config.v ~segment_words:64 ~max_heap_words:(64 * 8) ~max_generation:1 () in
  let h = Heap.create ~config () in
  (* Churn with collection stays within budget. *)
  for round = 0 to 9 do
    (try
       for i = 0 to 50 do
         ignore (Obj.cons h (Word.of_fixnum i) Word.nil)
       done
     with Heap.Out_of_memory -> Alcotest.fail (Printf.sprintf "round %d: spurious OOM" round));
    ignore (Collector.collect h ~gen:1)
  done;
  (* Retaining everything must eventually overflow. *)
  let keep = Heap.new_cell h Word.nil in
  Alcotest.check_raises "oom" Heap.Out_of_memory (fun () ->
      for i = 0 to 10_000 do
        Heap.write_cell h keep (Obj.cons h (Word.of_fixnum i) (Heap.read_cell h keep))
      done);
  (* The heap is still usable after freeing. *)
  Heap.free_cell h keep;
  ignore (Collector.collect h ~gen:1);
  ignore (Obj.cons h (Word.of_fixnum 1) Word.nil)

(* Property: lists of random fixnums round-trip through the heap. *)
let prop_list_roundtrip =
  QCheck.Test.make ~name:"list roundtrip" ~count:200
    QCheck.(list (int_range (-1000000) 1000000))
    (fun xs ->
      let h = Heap.create () in
      let l = Obj.list_of h (List.map Word.of_fixnum xs) in
      List.map Word.to_fixnum (Obj.to_list h l) = xs)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 QCheck.printable_string
    (fun s ->
      let h = Heap.create () in
      Obj.string_to_ocaml h (Obj.string_of_ocaml h s) = s)

let prop_vector_roundtrip =
  QCheck.Test.make ~name:"vector roundtrip" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let h = Heap.create () in
      let v = Obj.vector_of_list h (List.map Word.of_fixnum xs) in
      Obj.vector_length h v = List.length xs
      && List.mapi (fun i _ -> Word.to_fixnum (Obj.vector_ref h v i)) xs = xs)

let () =
  Alcotest.run "heap"
    [
      ( "segments",
        [
          Alcotest.test_case "space assignment" `Quick test_segment_assignment;
          Alcotest.test_case "many segments" `Quick test_many_segments;
          Alcotest.test_case "large object" `Quick test_large_object;
          Alcotest.test_case "oversized rejected" `Quick test_oversized_rejected;
          Alcotest.test_case "generation lists exact" `Quick test_generation_lists_exact;
        ] );
      ( "roots",
        [
          Alcotest.test_case "cells" `Quick test_root_cells;
          Alcotest.test_case "handles" `Quick test_handles;
          Alcotest.test_case "with_cell" `Quick test_with_cell;
          Alcotest.test_case "scanners" `Quick test_scanner_registration;
        ] );
      ( "objects",
        [
          Alcotest.test_case "strings/bytevectors" `Quick test_strings_and_bytevectors;
          Alcotest.test_case "boxes/records/flonums" `Quick test_boxes_records_flonums;
          Alcotest.test_case "alloc forbidden" `Quick test_alloc_forbidden;
          Alcotest.test_case "live words" `Quick test_live_words_accounting;
          Alcotest.test_case "heap limit" `Quick test_heap_limit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_list_roundtrip; prop_string_roundtrip; prop_vector_roundtrip ] );
    ]
