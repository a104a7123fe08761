(** Heap census: a non-moving reachability analysis over the simulated
    heap, in the spirit of Chez Scheme's [object-counts].

    Traversal follows the collector's own rules — weak cars are not
    traversed, ephemeron values only count once their key has been reached
    (computed as a fixpoint) — so immediately after a {e full} collection,
    the words reachable from the roots plus the protected lists equal the
    heap's live words exactly.  The test suites use that as yet another
    oracle against the copying collector. *)

type counts = {
  mutable pairs : int;
  mutable weak_pairs : int;
  mutable ephemerons : int;
  mutable typed : int array;  (** indexed by {!Obj} type code *)
  mutable objects : int;
  mutable words : int;
}

let empty_counts () =
  {
    pairs = 0;
    weak_pairs = 0;
    ephemerons = 0;
    typed = Array.make 16 0;
    objects = 0;
    words = 0;
  }

type t = {
  reachable : counts;
  heap_live_words : int;  (** total allocated words at census time *)
}

let slack t = t.heap_live_words - t.reachable.words
(** Words allocated but not reachable: garbage awaiting collection (plus
    pad words after zero-field objects). *)

(** Run a census.  Guardian registrations (object, representative and
    tconc) count as roots, matching what a collection would preserve. *)
let run h =
  let c = empty_counts () in
  let visited = Hashtbl.create 1024 in
  let pending_ephemerons = ref [] in
  let work = ref [] in
  let push w = work := w :: !work in
  let account_pair kind w =
    c.objects <- c.objects + 1;
    c.words <- c.words + 2;
    (match kind with
    | `Pair -> c.pairs <- c.pairs + 1
    | `Weak -> c.weak_pairs <- c.weak_pairs + 1
    | `Eph -> c.ephemerons <- c.ephemerons + 1);
    ignore w
  in
  let visit w =
    if Word.is_pointer w && not (Hashtbl.mem visited w) then begin
      Hashtbl.add visited w ();
      let si = Heap.info_of_word h w in
      let addr = Word.addr w in
      match si.Heap.space with
      | Space.Pair ->
          account_pair `Pair w;
          push (Heap.load h addr);
          push (Heap.load h (addr + 1))
      | Space.Weak ->
          account_pair `Weak w;
          (* car is weak: not traversed *)
          push (Heap.load h (addr + 1))
      | Space.Ephemeron ->
          account_pair `Eph w;
          pending_ephemerons := w :: !pending_ephemerons
      | Space.Typed | Space.Data ->
          let len = Obj.typed_len h w in
          let code = Obj.typed_code h w in
          c.objects <- c.objects + 1;
          c.words <- c.words + len + 1;
          if code < Array.length c.typed then c.typed.(code) <- c.typed.(code) + 1;
          if si.Heap.space = Space.Typed then
            for i = 0 to len - 1 do
              push (Obj.field h w i)
            done
    end
  in
  let drain () =
    while !work <> [] do
      match !work with
      | [] -> ()
      | w :: rest ->
          work := rest;
          visit w
    done
  in
  (* Roots. *)
  Heap.iter_scanners h ~f:(fun scan ->
      scan (fun w ->
          push w;
          w));
  for gen = 0 to Heap.max_generation h do
    let p = h.Heap.protected.(gen) in
    for j = 0 to Vec.Int.length p.Heap.p_objs - 1 do
      push (Vec.Int.get p.Heap.p_objs j);
      push (Vec.Int.get p.Heap.p_reps j);
      push (Vec.Int.get p.Heap.p_tconcs j)
    done
  done;
  drain ();
  (* Ephemeron fixpoint: trace values whose keys have been reached. *)
  let progress = ref true in
  while !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun w ->
        let addr = Word.addr w in
        let key = Heap.load h addr in
        let key_reached = (not (Word.is_pointer key)) || Hashtbl.mem visited key in
        if key_reached then begin
          progress := true;
          push (Heap.load h (addr + 1))
        end
        else still := w :: !still)
      !pending_ephemerons;
    pending_ephemerons := !still;
    drain ()
  done;
  (* Pads after zero-field objects are allocated but never pointed at:
     account them so the live-words comparison is exact. *)
  let pad_words = ref 0 in
  Hashtbl.iter
    (fun w () ->
      if Word.is_typed_ptr w && Obj.typed_len h w = 0 then incr pad_words)
    visited;
  c.words <- c.words + !pad_words;
  { reachable = c; heap_live_words = Heap.live_words h }

let pp ppf t =
  let c = t.reachable in
  Format.fprintf ppf
    "@[<v>reachable objects %d (%d words; heap has %d live words, slack %d)@ \
     pairs %d, weak pairs %d, ephemerons %d@]"
    c.objects c.words t.heap_live_words (slack t) c.pairs c.weak_pairs
    c.ephemerons;
  Array.iteri
    (fun code n -> if n > 0 then Format.fprintf ppf "@ %s: %d" (Obj.type_name code) n)
    c.typed
