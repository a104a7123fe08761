(* The Section 2 baseline mechanisms: weak sets and Dickey
   register-for-finalization. *)

open Gbc_runtime
module Weak_set = Gbc_baselines.Weak_set
module Finalize = Gbc_baselines.Finalize

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Config.v ~segment_words:128 ~max_generation:2 ()
let heap () = Heap.create ~config:cfg ()
let fx = Word.of_fixnum
let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

(* --- weak sets ---------------------------------------------------- *)

let test_weak_set_membership () =
  let h = heap () in
  let s = Weak_set.create h in
  let a = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  let b = Handle.create h (Obj.cons h (fx 2) Word.nil) in
  Weak_set.add s (Handle.get a);
  Weak_set.add s (Handle.get b);
  check_int "two members" 2 (List.length (Weak_set.members s));
  Weak_set.remove s (Handle.get a);
  check_int "one member" 1 (List.length (Weak_set.members s));
  check "the right one" true (Word.equal (List.hd (Weak_set.members s)) (Handle.get b))

let test_weak_set_drops_dead () =
  let h = heap () in
  let s = Weak_set.create h in
  let keep = Handle.create h (Obj.cons h (fx 0) Word.nil) in
  Weak_set.add s (Handle.get keep);
  for i = 1 to 9 do
    Weak_set.add s (Obj.cons h (fx i) Word.nil)
  done;
  full_collect h;
  check_int "dropped discovered" 9 (Weak_set.scan_for_dropped s);
  check_int "survivor" 1 (Weak_set.count s)

let test_weak_set_scan_cost_is_linear () =
  (* The inefficiency guardians fix: discovering 1 death costs a scan of
     all N members. *)
  let h = heap () in
  let s = Weak_set.create h in
  let keep = Handle.create h Word.nil in
  for i = 0 to 99 do
    let x = Obj.cons h (fx i) Word.nil in
    if i > 0 then Handle.set keep (Obj.cons h x (Handle.get keep));
    Weak_set.add s x
  done;
  full_collect h;
  let before = Weak_set.scan_steps s in
  check_int "one death" 1 (Weak_set.scan_for_dropped s);
  check "paid ~N to find it" true (Weak_set.scan_steps s - before >= 100)

(* --- Dickey register-for-finalization ------------------------------ *)

let test_finalize_runs_thunk () =
  let h = heap () in
  let f = Finalize.create h in
  let ran = ref false in
  Finalize.register f (Obj.cons h (fx 1) Word.nil) ~thunk:(fun () -> ran := true);
  check "not before death" false !ran;
  full_collect h;
  check "ran at collection" true !ran;
  check_int "finalized count" 1 (Finalize.finalized f)

let test_finalize_live_untouched () =
  let h = heap () in
  let f = Finalize.create h in
  let ran = ref false in
  let x = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  Finalize.register f (Handle.get x) ~thunk:(fun () -> ran := true);
  full_collect h;
  full_collect h;
  check "live object not finalized" false !ran;
  check_int "still registered" 1 (Finalize.registered_count f);
  Handle.free x;
  full_collect h;
  check "fires after drop" true !ran

let test_finalize_no_allocation_allowed () =
  (* The restriction the paper criticizes: thunks run during collection and
     must not allocate. *)
  let h = heap () in
  let f = Finalize.create h in
  let observed = ref None in
  Finalize.register f (Obj.cons h (fx 1) Word.nil) ~thunk:(fun () ->
      try ignore (Obj.cons h (fx 1) Word.nil)
      with e -> observed := Some e);
  full_collect h;
  check "allocation rejected inside thunk" true
    (!observed = Some Heap.Allocation_forbidden)

let test_finalize_errors_suppressed () =
  (* Errors must not prevent other thunks from running. *)
  let h = heap () in
  let f = Finalize.create h in
  let second_ran = ref false in
  Finalize.register f (Obj.cons h (fx 1) Word.nil) ~thunk:(fun () -> failwith "boom");
  Finalize.register f (Obj.cons h (fx 2) Word.nil) ~thunk:(fun () -> second_ran := true);
  full_collect h;
  check "second thunk still ran" true !second_ran;
  check_int "error recorded" 1 (List.length (Finalize.errors f))

let test_finalize_scan_cost () =
  (* Cost proportional to registrations at every collection — the
     generation-unfriendliness measured in E1/E8. *)
  let h = heap () in
  let f = Finalize.create h in
  let keep = Handle.create h Word.nil in
  for i = 0 to 99 do
    let x = Obj.cons h (fx i) Word.nil in
    Handle.set keep (Obj.cons h x (Handle.get keep));
    Finalize.register f x ~thunk:(fun () -> ())
  done;
  let before = Finalize.scan_steps f in
  ignore (Collector.collect h ~gen:0);
  check "scan pays O(registered) even when nothing died" true
    (Finalize.scan_steps f - before >= 100)

let () =
  Alcotest.run "baselines"
    [
      ( "weak sets (T populations)",
        [
          Alcotest.test_case "membership" `Quick test_weak_set_membership;
          Alcotest.test_case "drops dead" `Quick test_weak_set_drops_dead;
          Alcotest.test_case "linear scan cost" `Quick test_weak_set_scan_cost_is_linear;
        ] );
      ( "register-for-finalization (Dickey)",
        [
          Alcotest.test_case "thunk runs" `Quick test_finalize_runs_thunk;
          Alcotest.test_case "live untouched" `Quick test_finalize_live_untouched;
          Alcotest.test_case "no allocation (E8)" `Quick test_finalize_no_allocation_allowed;
          Alcotest.test_case "errors suppressed" `Quick test_finalize_errors_suppressed;
          Alcotest.test_case "scan cost" `Quick test_finalize_scan_cost;
        ] );
    ]
