(** See torture.mli for the architecture.  The invariants the driver
    leans on:

    - heap action first, oracle mirror second: an op that dies with
      [Heap.Out_of_memory] has not touched the oracle, so recovery only
      needs to drop the op (partial multi-allocation constructors leave
      plain garbage behind, which the next collection reclaims);
    - operand selectors resolve against the current live set ([sel mod
      population]), never against absolute ids, so deleting ops from a
      trace keeps the remainder interpretable — what the shrinker needs;
    - no wall clock, no [Stdlib.Random], no iteration over hash tables
      anywhere on the result path. *)

open Gbc_runtime
module Image = Gbc_image.Image

type value = Oracle.value = Imm of Word.t | Ref of int

type op =
  | Alloc_pair of int * int
  | Alloc_weak of int * int
  | Alloc_ephemeron of int * int
  | Alloc_vector of int * int
  | Alloc_box of int
  | Alloc_tconc
  | Alloc_guardian
  | Set_car of int * int
  | Set_cdr of int * int
  | Vector_set of int * int * int
  | Box_set of int * int
  | Tconc_enqueue of int * int
  | Tconc_dequeue of int
  | Register of int * int
  | Register_rep of int * int * int
  | Poll of int
  | Unroot of int
  | Mutation_storm of int * int
  | Checkpoint
  | Collect of int

let pp_op ppf = function
  | Alloc_pair (a, b) -> Format.fprintf ppf "alloc-pair %d %d" a b
  | Alloc_weak (a, b) -> Format.fprintf ppf "alloc-weak %d %d" a b
  | Alloc_ephemeron (a, b) -> Format.fprintf ppf "alloc-ephemeron %d %d" a b
  | Alloc_vector (a, b) -> Format.fprintf ppf "alloc-vector %d %d" a b
  | Alloc_box a -> Format.fprintf ppf "alloc-box %d" a
  | Alloc_tconc -> Format.fprintf ppf "alloc-tconc"
  | Alloc_guardian -> Format.fprintf ppf "alloc-guardian"
  | Set_car (a, b) -> Format.fprintf ppf "set-car %d %d" a b
  | Set_cdr (a, b) -> Format.fprintf ppf "set-cdr %d %d" a b
  | Vector_set (a, b, c) -> Format.fprintf ppf "vector-set %d %d %d" a b c
  | Box_set (a, b) -> Format.fprintf ppf "box-set %d %d" a b
  | Tconc_enqueue (a, b) -> Format.fprintf ppf "tconc-enqueue %d %d" a b
  | Tconc_dequeue a -> Format.fprintf ppf "tconc-dequeue %d" a
  | Register (a, b) -> Format.fprintf ppf "register %d %d" a b
  | Register_rep (a, b, c) -> Format.fprintf ppf "register-rep %d %d %d" a b c
  | Poll a -> Format.fprintf ppf "poll %d" a
  | Unroot a -> Format.fprintf ppf "unroot %d" a
  | Mutation_storm (a, b) -> Format.fprintf ppf "mutation-storm %d %d" a b
  | Checkpoint -> Format.fprintf ppf "checkpoint"
  | Collect a -> Format.fprintf ppf "collect %d" a

(* ------------------------------------------------------------------ *)
(* Driver state                                                        *)

exception Fail of string

let failf fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

type tracked = {
  oid : int;  (** oracle node id *)
  mutable word : Word.t;  (** current heap word (weak-scanner maintained) *)
  mutable halive : bool;  (** heap-side liveness (weak-scanner maintained) *)
  mutable cell : int;  (** heap root cell id, or -1 when unrooted *)
}

type st = {
  mutable h : Heap.t;  (** replaced wholesale by a [Checkpoint] op *)
  o : Oracle.t;
  mutable nodes : tracked array;
  mutable nnodes : int;
  mutable collections : int;
  mutable verify_checks : int;
  mutable comparisons : int;
  mutable oom_recoveries : int;
  mutable checkpoints : int;
}

(* The weak scanner keeps every tracked word current without keeping
   anything alive: it runs after each collection's weak pass.  Registered
   once per heap — again after every checkpoint swap. *)
let register_tracker st =
  ignore
    (Heap.add_weak_scanner st.h (fun lookup ->
         for i = 0 to st.nnodes - 1 do
           let tr = st.nodes.(i) in
           if tr.halive then
             match lookup tr.word with
             | Some w -> tr.word <- w
             | None -> tr.halive <- false
         done)
      : int)

let new_state config =
  let h = Heap.create ~config () in
  let o =
    Oracle.create ~max_generation:config.Config.max_generation
      ~generation_friendly_guardians:config.Config.generation_friendly_guardians
  in
  let st =
    { h; o; nodes = [||]; nnodes = 0; collections = 0; verify_checks = 0;
      comparisons = 0; oom_recoveries = 0; checkpoints = 0 }
  in
  register_tracker st;
  st

let track st word rooted =
  let oid = st.nnodes in
  let cell = if rooted then Heap.new_cell st.h word else -1 in
  let tr = { oid; word; halive = true; cell } in
  if st.nnodes = Array.length st.nodes then begin
    let bigger = Array.make (max 64 (2 * st.nnodes)) tr in
    Array.blit st.nodes 0 bigger 0 st.nnodes;
    st.nodes <- bigger
  end;
  st.nodes.(oid) <- tr;
  st.nnodes <- oid + 1;
  oid

let word_of st = function
  | Imm w -> w
  | Ref id ->
      let tr = st.nodes.(id) in
      if not tr.halive then failf "oracle refers to heap-dead node %d" id;
      tr.word

(* Candidate sets, in ascending id order (deterministic). *)
let ids_where st p =
  let acc = ref [] in
  for id = st.nnodes - 1 downto 0 do
    if p id then acc := id :: !acc
  done;
  Array.of_list !acc

let alive_ids st = ids_where st (fun id -> st.nodes.(id).halive)
let rooted_ids st = ids_where st (fun id -> st.nodes.(id).halive && st.nodes.(id).cell >= 0)

let rooted_of st ks =
  ids_where st (fun id ->
      st.nodes.(id).halive && st.nodes.(id).cell >= 0
      && List.mem (Oracle.node st.o id).Oracle.kind ks)

(* A value selector: ~1/4 immediates, otherwise any live node. *)
let resolve_value st sel =
  let cand = alive_ids st in
  if sel mod 4 = 0 || Array.length cand = 0 then Imm (Word.of_fixnum (sel land 0xffff))
  else Ref cand.((sel / 4) mod Array.length cand)

let pick_rooted st ks sel =
  let cand = rooted_of st ks in
  if Array.length cand = 0 then None else Some cand.(sel mod Array.length cand)

(* ------------------------------------------------------------------ *)
(* Collection + differential comparison                                *)

let check_words ~what ~id heap_w oracle_w =
  if not (Word.equal heap_w oracle_w) then
    failf "divergence at node %d %s: heap %a vs oracle %a" id what Word.pp heap_w Word.pp
      oracle_w

let compare_all st ~gen:_ =
  st.comparisons <- st.comparisons + 1;
  for id = 0 to st.nnodes - 1 do
    let tr = st.nodes.(id) in
    let nd = Oracle.node st.o id in
    if tr.halive <> nd.Oracle.alive then
      failf "liveness divergence at node %d: heap %b vs oracle %b" id tr.halive
        nd.Oracle.alive;
    if tr.halive then begin
      let w = tr.word in
      let hgen = Heap.generation_of_word st.h w in
      if hgen <> nd.Oracle.gen then
        failf "generation divergence at node %d: heap %d vs oracle %d" id hgen
          nd.Oracle.gen;
      match nd.Oracle.kind with
      | Oracle.Pair | Oracle.Weakpair | Oracle.Ephemeron ->
          check_words ~what:"car" ~id (Obj.car st.h w) (word_of st nd.Oracle.fields.(0));
          check_words ~what:"cdr" ~id (Obj.cdr st.h w) (word_of st nd.Oracle.fields.(1))
      | Oracle.Vector ->
          let len = Array.length nd.Oracle.fields in
          if Obj.vector_length st.h w <> len then
            failf "vector length divergence at node %d" id;
          for i = 0 to len - 1 do
            check_words ~what:(Printf.sprintf "slot %d" i) ~id
              (Obj.vector_ref st.h w i)
              (word_of st nd.Oracle.fields.(i))
          done
      | Oracle.Box ->
          check_words ~what:"box" ~id (Obj.box_ref st.h w) (word_of st nd.Oracle.fields.(0))
      | Oracle.Tconc ->
          (* Mutator-only queue: order is exact. *)
          let hs = Tconc.to_list st.h w in
          let os = List.map (word_of st) nd.Oracle.queue in
          if not (List.length hs = List.length os && List.for_all2 Word.equal hs os) then
            failf "tconc contents divergence at node %d (%d vs %d elements)" id
              (List.length hs) (List.length os)
      | Oracle.Guardian ->
          (* Resurrection order within one collection is scheduling detail;
             the saved multiset is the contract. *)
          let hs = List.sort compare (Guardian.pending_list st.h w) in
          let os = List.sort compare (List.map (word_of st) nd.Oracle.queue) in
          if hs <> os then
            failf "guardian pending divergence at node %d (%d vs %d pending)" id
              (List.length hs) (List.length os)
    end
  done

let do_collect st gen =
  let roots = Array.to_list (rooted_ids st) in
  st.collections <- st.collections + 1;
  let outcome = Collector.collect st.h ~gen in
  st.verify_checks <- st.verify_checks + 1;
  (match Verify.verify st.h with
  | [] -> ()
  | { Verify.what; where } :: rest ->
      failf "verify: %s (%s)%s" what where
        (if rest = [] then "" else Printf.sprintf " and %d more" (List.length rest)));
  Oracle.collect st.o ~roots ~gen ~target:outcome.Collector.target;
  compare_all st ~gen

(* ------------------------------------------------------------------ *)
(* Op interpretation                                                   *)

let max_gen st = Heap.max_generation st.h

(* Collection targets skew young, like real schedules do. *)
let collect_gen st sel =
  let rec go g sel =
    if g >= max_gen st || sel mod 3 <> 0 then g else go (g + 1) (sel / 3)
  in
  go 0 sel

let vector_len sel = if sel mod 19 = 0 then 300 (* large-segment path *) else 1 + (sel mod 6)

let rec interp st op =
  match op with
  | Alloc_pair (a, b) ->
      let va = resolve_value st a and vb = resolve_value st b in
      let w = Obj.cons st.h (word_of st va) (word_of st vb) in
      let oid = Oracle.alloc st.o Oracle.Pair [| va; vb |] in
      ignore (track st w true : int);
      assert (oid = st.nnodes - 1)
  | Alloc_weak (a, b) ->
      let va = resolve_value st a and vb = resolve_value st b in
      let w = Obj.weak_cons st.h (word_of st va) (word_of st vb) in
      ignore (Oracle.alloc st.o Oracle.Weakpair [| va; vb |] : int);
      ignore (track st w true : int)
  | Alloc_ephemeron (a, b) ->
      let va = resolve_value st a and vb = resolve_value st b in
      let w = Obj.ephemeron_cons st.h (word_of st va) (word_of st vb) in
      ignore (Oracle.alloc st.o Oracle.Ephemeron [| va; vb |] : int);
      ignore (track st w true : int)
  | Alloc_vector (lsel, isel) ->
      let len = vector_len lsel in
      let vi = resolve_value st isel in
      let w = Obj.make_vector st.h ~len ~init:(word_of st vi) in
      ignore (Oracle.alloc st.o Oracle.Vector (Array.make len vi) : int);
      ignore (track st w true : int)
  | Alloc_box a ->
      let va = resolve_value st a in
      let w = Obj.make_box st.h (word_of st va) in
      ignore (Oracle.alloc st.o Oracle.Box [| va |] : int);
      ignore (track st w true : int)
  | Alloc_tconc ->
      let w = Tconc.make st.h in
      ignore (Oracle.alloc st.o Oracle.Tconc [||] : int);
      ignore (track st w true : int)
  | Alloc_guardian ->
      let w = Guardian.make st.h in
      ignore (Oracle.alloc st.o Oracle.Guardian [||] : int);
      ignore (track st w true : int)
  | Set_car (tsel, vsel) -> (
      match pick_rooted st [ Oracle.Pair; Oracle.Weakpair ] tsel with
      | None -> ()
      | Some id ->
          let v = resolve_value st vsel in
          Obj.set_car st.h st.nodes.(id).word (word_of st v);
          Oracle.set_field st.o id 0 v)
  | Set_cdr (tsel, vsel) -> (
      match pick_rooted st [ Oracle.Pair; Oracle.Weakpair ] tsel with
      | None -> ()
      | Some id ->
          let v = resolve_value st vsel in
          Obj.set_cdr st.h st.nodes.(id).word (word_of st v);
          Oracle.set_field st.o id 1 v)
  | Vector_set (tsel, isel, vsel) -> (
      match pick_rooted st [ Oracle.Vector ] tsel with
      | None -> ()
      | Some id ->
          let len = Array.length (Oracle.node st.o id).Oracle.fields in
          let i = isel mod len in
          let v = resolve_value st vsel in
          Obj.vector_set st.h st.nodes.(id).word i (word_of st v);
          Oracle.set_field st.o id i v)
  | Box_set (tsel, vsel) -> (
      match pick_rooted st [ Oracle.Box ] tsel with
      | None -> ()
      | Some id ->
          let v = resolve_value st vsel in
          Obj.box_set st.h st.nodes.(id).word (word_of st v);
          Oracle.set_field st.o id 0 v)
  | Tconc_enqueue (tsel, vsel) -> (
      match pick_rooted st [ Oracle.Tconc ] tsel with
      | None -> ()
      | Some id ->
          let v = resolve_value st vsel in
          Tconc.mutator_enqueue st.h st.nodes.(id).word (word_of st v);
          Oracle.enqueue st.o id v)
  | Tconc_dequeue tsel -> (
      match pick_rooted st [ Oracle.Tconc ] tsel with
      | None -> ()
      | Some id -> (
          let hr = Tconc.dequeue st.h st.nodes.(id).word in
          let orr = Oracle.dequeue st.o id in
          match (hr, orr) with
          | None, None -> ()
          | Some hw, Some ov when Word.equal hw (word_of st ov) -> ()
          | _ -> failf "tconc dequeue divergence at node %d" id))
  | Register (gsel, osel) -> (
      match pick_rooted st [ Oracle.Guardian ] gsel with
      | None -> ()
      | Some g ->
          let obj = resolve_value st osel in
          Guardian.register st.h st.nodes.(g).word (word_of st obj);
          Oracle.register st.o ~guardian:g ~obj ~rep:obj)
  | Register_rep (gsel, osel, rsel) -> (
      match pick_rooted st [ Oracle.Guardian ] gsel with
      | None -> ()
      | Some g ->
          let obj = resolve_value st osel and rep = resolve_value st rsel in
          Guardian.register_with_rep st.h st.nodes.(g).word ~obj:(word_of st obj)
            ~rep:(word_of st rep);
          Oracle.register st.o ~guardian:g ~obj ~rep)
  | Poll gsel -> (
      match pick_rooted st [ Oracle.Guardian ] gsel with
      | None -> ()
      | Some g -> (
          match Guardian.retrieve st.h st.nodes.(g).word with
          | None ->
              if Oracle.pending st.o g <> [] then
                failf "guardian %d retrieve None with %d oracle-pending" g
                  (List.length (Oracle.pending st.o g))
          | Some w ->
              let matches v = Word.equal (word_of st v) w in
              (match List.find_opt matches (Oracle.pending st.o g) with
              | None -> failf "guardian %d retrieved a word the oracle never saved" g
              | Some v ->
                  ignore (Oracle.remove_pending st.o ~guardian:g ~f:matches : bool);
                  (* The program owns the saved object again: re-root it. *)
                  (match v with
                  | Ref id when st.nodes.(id).cell < 0 ->
                      st.nodes.(id).cell <- Heap.new_cell st.h st.nodes.(id).word
                  | _ -> ()))))
  | Unroot sel ->
      let cand = rooted_ids st in
      (* Keep a couple of roots so the mutator always has footing. *)
      if Array.length cand > 2 then begin
        let id = cand.(sel mod Array.length cand) in
        Heap.free_cell st.h st.nodes.(id).cell;
        st.nodes.(id).cell <- -1
      end
  | Mutation_storm (sseed, csel) ->
      (* A burst of barrier-heavy stores: old objects mutated to point at
         young ones and back, the pattern card marking exists for. *)
      let rng = Prng.make sseed in
      let count = 4 + (csel mod 12) in
      for _ = 1 to count do
        let s () = Prng.int rng 1_000_000 in
        match Prng.int rng 4 with
        | 0 -> interp st (Set_car (s (), s ()))
        | 1 -> interp st (Set_cdr (s (), s ()))
        | 2 -> interp st (Vector_set (s (), s (), s ()))
        | _ -> interp st (Box_set (s (), s ()))
      done
  | Checkpoint ->
      (* Serialize the whole heap, rebuild a fresh one from the bytes, and
         continue the episode against the restored heap.  The tracked
         words ride along in an extra section (relocated like any heap
         slot) so the driver can re-point its mirror; dead slots carry an
         immediate placeholder.  Before the swap, a second save of the
         restored heap must reproduce the image byte-for-byte — the
         canonical-form contract.  After it, [compare_all] demands the
         restored heap still agrees with the oracle exactly as the old
         one did.  The fault state is carried across by hand (the loader
         is exempt; the countdown must not notice the swap). *)
      let section w = [ ("torture/tracked", { Image.xwords = w; xbytes = "" }) ] in
      let tracked =
        Array.init st.nnodes (fun i ->
            let tr = st.nodes.(i) in
            if tr.halive then tr.word else Word.of_fixnum 0)
      in
      let bytes = Image.save_string ~extras:(section tracked) st.h in
      let l = Image.load_string ~config:(Heap.config st.h) bytes in
      let tracked' =
        match List.assoc_opt "torture/tracked" l.Image.extras with
        | Some e -> e.Image.xwords
        | None -> failf "checkpoint: tracked section missing after restore"
      in
      if Array.length tracked' <> st.nnodes then
        failf "checkpoint: tracked section resized (%d vs %d words)"
          (Array.length tracked') st.nnodes;
      let bytes' = Image.save_string ~extras:(section tracked') l.Image.heap in
      if not (String.equal bytes bytes') then
        failf "checkpoint: save -> load -> save not byte-identical (%d vs %d bytes)"
          (String.length bytes) (String.length bytes');
      (* Only now is it safe to abandon the old heap. *)
      let fo = Heap.faults st.h and fn = Heap.faults l.Image.heap in
      fn.Heap.fail_segment_alloc_at <- fo.Heap.fail_segment_alloc_at;
      fn.Heap.corrupt_forward_period <- fo.Heap.corrupt_forward_period;
      fn.Heap.forwards_seen <- fo.Heap.forwards_seen;
      fn.Heap.injected <- fo.Heap.injected;
      st.h <- l.Image.heap;
      for i = 0 to st.nnodes - 1 do
        let tr = st.nodes.(i) in
        if tr.halive then tr.word <- tracked'.(i)
      done;
      register_tracker st;
      st.checkpoints <- st.checkpoints + 1;
      if (Heap.config st.h).Config.image_verify_on_load then
        st.verify_checks <- st.verify_checks + 1;
      compare_all st ~gen:0
  | Collect sel -> do_collect st (collect_gen st sel)

(* Out-of-memory is a survivable event: the heap stays consistent, the
   oracle was never touched (heap action runs first), and a full collection
   afterwards must leave both in agreement.  Retry the op once with the
   reclaimed space; under a hard ceiling it may simply be skipped. *)
let interp_recovering st op =
  try interp st op
  with Heap.Out_of_memory ->
    st.oom_recoveries <- st.oom_recoveries + 1;
    st.verify_checks <- st.verify_checks + 1;
    (match Verify.verify st.h with
    | [] -> ()
    | { Verify.what; where } :: _ -> failf "verify after OOM: %s (%s)" what where);
    do_collect st (max_gen st);
    (try interp st op with Heap.Out_of_memory -> ())

(* ------------------------------------------------------------------ *)
(* Episodes                                                            *)

type failure = {
  episode : int;
  profile : string;
  op_index : int;
  reason : string;
  shrunk_ops : int;
  shrunk_trace : string;
}

type episode_summary = {
  profile : string;
  ops_run : int;
  collections : int;
  verify_checks : int;
  comparisons : int;
  oom_recoveries : int;
  checkpoints : int;
  faults_injected : int;
}

type raw_failure = { rf_index : int; rf_reason : string }

exception Stop of raw_failure

(* Config extremes: tiny segments, one card per segment, a single
   generation (a plain semispace), the D1 single-list ablation, a hard
   heap ceiling.  All with small segments so a few thousand ops cross
   many segment and card boundaries. *)
let profiles : (string * (unit -> Config.t)) array =
  [|
    ("small", fun () -> Config.v ~segment_words:128 ~card_words:64 ~max_generation:3 ());
    ("tiny-segments", fun () -> Config.v ~segment_words:64 ~card_words:16 ~max_generation:4 ());
    ("one-card", fun () -> Config.v ~segment_words:64 ~card_words:64 ~max_generation:3 ());
    ("single-gen", fun () -> Config.v ~segment_words:128 ~card_words:32 ~max_generation:0 ());
    ( "no-gff",
      fun () ->
        Config.v ~segment_words:128 ~card_words:32 ~max_generation:2
          ~generation_friendly_guardians:false () );
    ( "heap-pressure",
      fun () ->
        Config.v ~segment_words:64 ~card_words:16 ~max_generation:2
          ~max_heap_words:6144 () );
  |]

let run_episode ~config ~arm_fault ~corrupt_period ops =
  let st = new_state config in
  let f = Heap.faults st.h in
  f.Heap.fail_segment_alloc_at <- arm_fault;
  f.Heap.corrupt_forward_period <- corrupt_period;
  let nops = Array.length ops in
  let failure = ref None in
  let ran = ref 0 in
  (try
     Array.iteri
       (fun i op ->
         ran := i;
         try interp_recovering st op with
         | Fail reason -> raise (Stop { rf_index = i; rf_reason = reason })
         | Stop _ as e -> raise e
         | e ->
             raise
               (Stop { rf_index = i; rf_reason = "exception: " ^ Printexc.to_string e }))
       ops;
     ran := nops;
     (* Epilogue: a full collection must drain to a clean, agreeing state. *)
     try do_collect st (max_gen st)
     with
     | Fail reason -> raise (Stop { rf_index = nops; rf_reason = reason })
     | e -> raise (Stop { rf_index = nops; rf_reason = "exception: " ^ Printexc.to_string e })
   with Stop f -> failure := Some f);
  let summary ~profile =
    {
      profile;
      ops_run = !ran;
      collections = st.collections;
      verify_checks = st.verify_checks;
      comparisons = st.comparisons;
      oom_recoveries = st.oom_recoveries;
      checkpoints = st.checkpoints;
      faults_injected = (Heap.faults st.h).Heap.injected;
    }
  in
  (summary, !failure)

(* ------------------------------------------------------------------ *)
(* Shrinking (ddmin-style chunk removal)                               *)

let shrink ~test ops =
  let budget = ref 400 (* bounded: each probe replays an episode *) in
  let test' cand =
    if !budget <= 0 then false
    else begin
      decr budget;
      test cand
    end
  in
  let current = ref ops in
  let granularity = ref 2 in
  let finished = ref false in
  while not !finished do
    let n = Array.length !current in
    if n <= 1 || !budget <= 0 then finished := true
    else begin
      let chunk = max 1 (n / !granularity) in
      let removed = ref false in
      let i = ref 0 in
      while (not !removed) && (!i * chunk) < n do
        let lo = !i * chunk in
        let hi = min n (lo + chunk) in
        let cand =
          Array.append (Array.sub !current 0 lo) (Array.sub !current hi (n - hi))
        in
        if Array.length cand < n && test' cand then begin
          current := cand;
          removed := true;
          granularity := max 2 (!granularity - 1)
        end;
        incr i
      done;
      if not !removed then
        if chunk = 1 then finished := true else granularity := min n (!granularity * 2)
    end
  done;
  !current

(* ------------------------------------------------------------------ *)
(* Seed runs                                                           *)

type report = {
  seed : int;
  ops_requested : int;
  episodes : episode_summary list;
  failure : failure option;
}

type opts = { ops : int; faults : bool; inject_bug : bool }

let default_opts = { ops = 5000; faults = false; inject_bug = false }

let gen_op rng =
  let s () = Prng.int rng 1_000_000 in
  let r = Prng.int rng 100 in
  if r < 12 then Alloc_pair (s (), s ())
  else if r < 17 then Alloc_weak (s (), s ())
  else if r < 21 then Alloc_ephemeron (s (), s ())
  else if r < 26 then Alloc_vector (s (), s ())
  else if r < 30 then Alloc_box (s ())
  else if r < 34 then Alloc_tconc
  else if r < 40 then Alloc_guardian
  else if r < 46 then Set_car (s (), s ())
  else if r < 50 then Set_cdr (s (), s ())
  else if r < 54 then Vector_set (s (), s (), s ())
  else if r < 57 then Box_set (s (), s ())
  else if r < 61 then Tconc_enqueue (s (), s ())
  else if r < 64 then Tconc_dequeue (s ())
  else if r < 71 then Register (s (), s ())
  else if r < 74 then Register_rep (s (), s (), s ())
  else if r < 80 then Poll (s ())
  else if r < 87 then Unroot (s ())
  else if r < 89 then Mutation_storm (s (), s ())
  else if r < 90 then Checkpoint
  else Collect (s ())

let gen_ops ~seed n =
  let rng = Prng.make seed in
  Array.init n (fun _ -> gen_op rng)

let trace_to_string ops =
  let buf = Buffer.create 256 in
  Array.iter (fun op -> Format.kasprintf (Buffer.add_string buf) "%a\n" pp_op op) ops;
  Buffer.contents buf

let run_seed ~seed ~opts =
  let rng = Prng.make seed in
  let nepisodes = 1 + Prng.int rng 3 in
  let per = max 1 (opts.ops / nepisodes) in
  let episodes = ref [] in
  let failure = ref None in
  let e = ref 0 in
  while !e < nepisodes && !failure = None do
    let name, mk =
      if !e = 0 then profiles.(0) else profiles.(Prng.int rng (Array.length profiles))
    in
    let config = mk () in
    let corrupt_period = if opts.inject_bug then 3 else 0 in
    let arm_fault = if opts.faults && Prng.bool rng then 1 + Prng.int rng 60 else 0 in
    let nops = if !e = 0 then max 1 (opts.ops - (per * (nepisodes - 1))) else per in
    let ops = Array.init nops (fun _ -> gen_op rng) in
    let summary, raw = run_episode ~config ~arm_fault ~corrupt_period ops in
    episodes := summary ~profile:name :: !episodes;
    (match raw with
    | None -> ()
    | Some { rf_index; rf_reason } ->
        (* Minimize: first truncate to the failing prefix, then ddmin. *)
        let prefix = Array.sub ops 0 (min (Array.length ops) (rf_index + 1)) in
        let still_fails cand =
          snd (run_episode ~config ~arm_fault ~corrupt_period cand) <> None
        in
        let minimal = if still_fails prefix then shrink ~test:still_fails prefix else prefix in
        failure :=
          Some
            {
              episode = !e;
              profile = name;
              op_index = rf_index;
              reason = rf_reason;
              shrunk_ops = Array.length minimal;
              shrunk_trace = trace_to_string minimal;
            });
    incr e
  done;
  { seed; ops_requested = opts.ops; episodes = List.rev !episodes; failure = !failure }

(* ------------------------------------------------------------------ *)
(* JSON report (hand-rolled, like bench_util's: no JSON dependency)    *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_reports reports =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let total f = List.fold_left (fun acc r -> acc + List.fold_left (fun a e -> a + f e) 0 r.episodes) 0 reports in
  pr "{\n  \"schema\": \"gbc-torture/1\",\n";
  pr "  \"seeds\": %d,\n" (List.length reports);
  pr "  \"totals\": {\n";
  pr "    \"ops_run\": %d,\n" (total (fun e -> e.ops_run));
  pr "    \"collections\": %d,\n" (total (fun e -> e.collections));
  pr "    \"verify_checks\": %d,\n" (total (fun e -> e.verify_checks));
  pr "    \"comparisons\": %d,\n" (total (fun e -> e.comparisons));
  pr "    \"oom_recoveries\": %d,\n" (total (fun e -> e.oom_recoveries));
  pr "    \"checkpoints\": %d,\n" (total (fun e -> e.checkpoints));
  pr "    \"faults_injected\": %d,\n" (total (fun e -> e.faults_injected));
  pr "    \"failures\": %d\n"
    (List.length (List.filter (fun r -> r.failure <> None) reports));
  pr "  },\n  \"runs\": [\n";
  List.iteri
    (fun i r ->
      pr "    {\n      \"seed\": %d,\n      \"ops_requested\": %d,\n" r.seed r.ops_requested;
      pr "      \"episodes\": [\n";
      List.iteri
        (fun j e ->
          pr
            "        {\"profile\": \"%s\", \"ops_run\": %d, \"collections\": %d, \
             \"verify_checks\": %d, \"comparisons\": %d, \"oom_recoveries\": %d, \
             \"checkpoints\": %d, \"faults_injected\": %d}%s\n"
            (json_escape e.profile) e.ops_run e.collections e.verify_checks e.comparisons
            e.oom_recoveries e.checkpoints e.faults_injected
            (if j = List.length r.episodes - 1 then "" else ","))
        r.episodes;
      pr "      ],\n";
      (match r.failure with
      | None -> pr "      \"failure\": null\n"
      | Some f ->
          pr
            "      \"failure\": {\"episode\": %d, \"profile\": \"%s\", \"op_index\": %d, \
             \"reason\": \"%s\", \"shrunk_ops\": %d}\n"
            f.episode (json_escape f.profile) f.op_index (json_escape f.reason) f.shrunk_ops);
      pr "    }%s\n" (if i = List.length reports - 1 then "" else ","))
    reports;
  pr "  ]\n}\n";
  Buffer.contents buf
