(** Heap invariant verifier: a debugging walk over the whole heap that
    checks structural invariants the collector relies on.  Used by the test
    suites after collections; cheap enough to run in anger when debugging.

    Checked invariants:
    - segment table: live segments have sane sizes, generations and used
      counts; pair/weak segments hold whole two-word cells;
    - object parse: typed/data segments parse as a sequence of well-formed
      headers covering exactly [used] words;
    - pointers: every pointer field, global cell, protected-list word and
      caller-supplied root word points into a live segment, at a valid
      object start, and never at a forwarding marker outside a collection;
    - spaces: weak pairs live only in weak space; headers only in
      typed/data space;
    - remembered set: a pointer from an older into a younger generation is
      covered by the byte of the card holding the pointer slot, and its
      segment is on the dirty list the collector scans;
    - protected lists: entries of generation [i]'s list reference objects
      and tconcs in generations [>= i] (or immediates). *)

type error = { what : string; where : string }

(* A slot is named by its kind and three integers [a b k], and its label
   is formatted only when an error is recorded.  [Field]: slot [k] of the
   object at offset [b] in segment [a] (car/cdr in pair space, field [k]
   after the header otherwise).  [Global]: global cell [a].  [Entry]: the
   obj/rep/tconc word [k] of entry [b] in generation [a]'s protected
   list.  [Root]: word [b] of the caller's root group [a]. *)
type slot = Field | Global | Entry | Root

let is_pair_space = function
  | Space.Pair | Space.Weak | Space.Ephemeron -> true
  | Space.Typed | Space.Data -> false

let slot_label h roots kind a b k =
  match kind with
  | Field when is_pair_space (Heap.info h a).Heap.space ->
      Printf.sprintf "seg %d off %d %s" a b (if k = 0 then "car" else "cdr")
  | Field -> Printf.sprintf "seg %d off %d field %d" a b k
  | Global -> Printf.sprintf "global cell %d" a
  | Entry -> Printf.sprintf "gen %d entry %d %s" a b [| "obj"; "rep"; "tconc" |].(k)
  | Root -> Printf.sprintf "%s[%d]" (fst roots.(a)) b

(* Object-start bitmap of a typed/data segment: byte [off] is 1 iff an
   object header sits at [off].  Pair-space starts are the even offsets. *)
let object_starts h seg =
  let si = Heap.info h seg in
  let arr = h.Heap.segs.(seg) in
  let starts = Bytes.make si.Heap.used '\000' in
  let off = ref 0 in
  while !off < si.Heap.used do
    Bytes.set starts !off '\001';
    let hdr = arr.(!off) in
    let len = if Word.is_fixnum hdr then Obj.header_len hdr else -1 in
    if len < 0 then off := si.Heap.used (* malformed; reported elsewhere *)
    else off := !off + 1 + len
  done;
  starts

let verify ?(roots = []) h =
  let roots = Array.of_list roots in
  let slot_label = slot_label h roots in
  let errors = ref [] in
  let err what where = errors := { what; where } :: !errors in
  let starts_cache = Array.make h.Heap.nsegs None in
  let is_start seg (ti : Heap.seg_info) off =
    if is_pair_space ti.Heap.space then off land 1 = 0
    else
      let starts =
        match starts_cache.(seg) with
        | Some s -> s
        | None ->
            let s = object_starts h seg in
            starts_cache.(seg) <- Some s;
            s
      in
      Bytes.get starts off = '\001'
  in
  let max_gen = Heap.max_generation h in
  (* Checks the word in slot [(kind, a, b, k)] of {!slot_label}; heap slots
     are also checked against the remembered set. *)
  let check_pointer kind a b k w =
    if Word.is_pointer w then begin
      let addr = Word.addr w in
      let seg = Heap.seg_of_addr addr in
      let off = Heap.off_of_addr addr in
      if seg < 0 || seg >= h.Heap.nsegs then
        err "pointer to unknown segment"
          (Printf.sprintf "%s -> seg %d" (slot_label kind a b k) seg)
      else begin
        let ti = Heap.info h seg in
        if not ti.Heap.live then
          if kind = Entry then
            err "protected entry into freed segment" (slot_label kind a b k)
          else err "pointer into freed segment" (slot_label kind a b k)
        else if off >= ti.Heap.used then
          err "pointer past used area"
            (Printf.sprintf "%s -> seg %d off %d used %d" (slot_label kind a b k) seg
               off ti.Heap.used)
        else if not (is_start seg ti off) then
          err "pointer to object interior"
            (Printf.sprintf "%s -> seg %d off %d" (slot_label kind a b k) seg off)
        else begin
          if Word.is_pair_ptr w <> is_pair_space ti.Heap.space then
            if Word.is_pair_ptr w then
              err "pair pointer into non-pair space" (slot_label kind a b k)
            else err "typed pointer into pair space" (slot_label kind a b k);
          if Word.equal h.Heap.segs.(seg).(off) Word.forward_marker then
            err "pointer at forwarding marker outside collection" (slot_label kind a b k);
          match kind with
          | Global | Root -> ()
          | Entry ->
              if ti.Heap.generation < a then
                err "protected entry younger than its list"
                  (Printf.sprintf "%s (obj gen %d)" (slot_label kind a b k)
                     ti.Heap.generation)
          | Field ->
              (* Remembered-set invariant: the card and the dirty list. *)
              let fi = Heap.info h a in
              if ti.Heap.generation < fi.Heap.generation then begin
                if not fi.Heap.on_dirty_list then
                  err "old-to-young pointer not remembered"
                    (Printf.sprintf "%s: seg %d gen %d not on the dirty list -> gen %d"
                       (slot_label kind a b k) a fi.Heap.generation ti.Heap.generation);
                let from_off = if is_pair_space fi.Heap.space then b + k else b + 1 + k in
                let card = Heap.card_of_off h from_off in
                let cg = Heap.card_min_gen h ~seg:a ~card in
                if ti.Heap.generation < cg then
                  err "old-to-young pointer's card not marked"
                    (Printf.sprintf "%s: seg %d card %d byte %d -> gen %d"
                       (slot_label kind a b k) a card cg ti.Heap.generation)
              end
        end
      end
    end
    else if Word.equal w Word.forward_marker then
      err "forwarding marker stored as a value" (slot_label kind a b k)
  in
  let errf what fmt = Printf.ksprintf (err what) fmt in
  for seg = 0 to h.Heap.nsegs - 1 do
    let si = Heap.info h seg in
    if si.Heap.live then begin
      if si.Heap.generation < 0 || si.Heap.generation > max_gen then
        errf "segment generation out of range" "seg %d gen %d" seg si.Heap.generation;
      if si.Heap.used > si.Heap.size then
        errf "segment overfull" "seg %d used %d size %d" seg si.Heap.used si.Heap.size;
      if si.Heap.condemned then errf "condemned segment outside collection" "seg %d" seg;
      let arr = h.Heap.segs.(seg) in
      match si.Heap.space with
      | Space.Pair | Space.Weak | Space.Ephemeron ->
          if si.Heap.used mod 2 <> 0 then
            errf "odd used count in pair segment" "seg %d used %d" seg si.Heap.used;
          let off = ref 0 in
          while !off < si.Heap.used do
            (* The car of a weak pair is weak but must still be a valid
               word; broken cars are #f. *)
            check_pointer Field seg !off 0 arr.(!off);
            check_pointer Field seg !off 1 arr.(!off + 1);
            off := !off + 2
          done
      | Space.Typed | Space.Data ->
          let off = ref 0 in
          while !off < si.Heap.used do
            let hdr = arr.(!off) in
            if not (Word.is_fixnum hdr) then begin
              errf "malformed header" "seg %d off %d" seg !off;
              off := si.Heap.used
            end
            else begin
              let len = Obj.header_len hdr and code = Obj.header_code hdr in
              if !off + 1 + len > si.Heap.used then begin
                errf "object overruns segment" "seg %d off %d len %d" seg !off len;
                off := si.Heap.used
              end
              else begin
                if code > Obj.code_pad then
                  errf "unknown type code" "seg %d off %d code %d" seg !off code;
                (if si.Heap.space = Space.Typed && code <> Obj.code_pad then
                   for i = 1 to len do
                     check_pointer Field seg !off (i - 1) arr.(!off + i)
                   done);
                off := !off + 1 + len
              end
            end
          done
    end
  done;
  for i = 0 to h.Heap.global_cells_len - 1 do
    check_pointer Global i 0 0 h.Heap.global_cells.(i)
  done;
  Array.iteri
    (fun a (_, words) -> Array.iteri (fun b w -> check_pointer Root a b 0 w) words)
    roots;
  for gen = 0 to max_gen do
    let p = h.Heap.protected.(gen) in
    for j = 0 to Vec.Int.length p.Heap.p_objs - 1 do
      check_pointer Entry gen j 0 (Vec.Int.get p.Heap.p_objs j);
      check_pointer Entry gen j 1 (Vec.Int.get p.Heap.p_reps j);
      check_pointer Entry gen j 2 (Vec.Int.get p.Heap.p_tconcs j)
    done
  done;
  List.rev !errors

(** Run {!verify} and raise on any violation (test helper). *)
let check_exn h =
  match verify h with
  | [] -> ()
  | errs ->
      let msg =
        String.concat "; "
          (List.map (fun e -> Printf.sprintf "%s (%s)" e.what e.where) errs)
      in
      failwith ("heap verification failed: " ^ msg)
