(** Heap invariant verifier: a debugging walk over the whole heap that
    checks structural invariants the collector relies on.  Used by the test
    suites after collections; cheap enough to run in anger when debugging.

    Checked invariants:
    - segment table: live segments have sane sizes, generations and used
      counts; pair/weak segments hold whole two-word cells;
    - object parse: typed/data segments parse as a sequence of well-formed
      headers with known type codes covering exactly [used] words;
    - pointers: every pointer field, global cell and protected-list word
      points into a live segment, at a valid object start, and never at a
      forwarding marker outside a collection;
    - spaces: weak pairs live only in weak space; headers only in
      typed/data space;
    - remembered set: a pointer from an older into a younger generation is
      covered by the byte of the card holding the pointer slot, and its
      segment is on the dirty list the collector scans;
    - protected lists: entries of generation [i]'s list reference objects
      and tconcs in generations [>= i] (or immediates). *)

type error = { what : string; where : string }

(* A slot's label is formatted only when an error is recorded. *)
type slot = Field | Global | Entry | Root of string

let is_pair_space = function
  | Space.Pair | Space.Weak | Space.Ephemeron -> true
  | Space.Typed | Space.Data -> false

let slot_label h kind a b k =
  match kind with
  | Field when is_pair_space (Heap.info h a).Heap.space ->
      Printf.sprintf "seg %d off %d %s" a b (if k = 0 then "car" else "cdr")
  | Field -> Printf.sprintf "seg %d off %d field %d" a b k
  | Global -> Printf.sprintf "global cell %d" a
  | Entry -> Printf.sprintf "gen %d entry %d %s" a b [| "obj"; "rep"; "tconc" |].(k)
  | Root name -> Printf.sprintf "%s[%d]" name b

(* Object starts, one bit per word of every segment in one buffer: word
   [off] of segment [seg] is bit [base.(seg) + off].  Only typed and data
   segments set bits; pair-space starts are the even offsets. *)
type starts = { bits : Bytes.t; base : int array }

let[@inline] is_start starts seg (ti : Heap.seg_info) off =
  if is_pair_space ti.Heap.space then off land 1 = 0
  else
    let i = starts.base.(seg) + off in
    Bytes.get_uint8 starts.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let object_starts h ~word ~err =
  let base = Array.make (h.Heap.nsegs + 1) 0 in
  for seg = 0 to h.Heap.nsegs - 1 do
    base.(seg + 1) <- base.(seg) + (Heap.info h seg).Heap.used
  done;
  let bits = Bytes.make ((base.(h.Heap.nsegs) + 7) lsr 3) '\000' in
  let errf what fmt = Printf.ksprintf (fun where -> err { what; where }) fmt in
  for seg = 0 to h.Heap.nsegs - 1 do
    let si = Heap.info h seg in
    let used = si.Heap.used in
    let off = ref (if si.Heap.live && not (is_pair_space si.Heap.space) then 0 else used) in
    while !off < used do
      let hdr = word seg !off in
      let len = if Word.is_fixnum hdr then Obj.header_len hdr else -1 in
      let next = !off + 1 + len in
      if len < 0 then errf "malformed header" "seg %d off %d" seg !off
      else if next > used then errf "object overruns segment" "seg %d off %d len %d" seg !off len
      else begin
        let i = base.(seg) + !off in
        Bytes.set_uint8 bits (i lsr 3) (Bytes.get_uint8 bits (i lsr 3) lor (1 lsl (i land 7)));
        if Obj.header_code hdr > Obj.code_pad then
          errf "unknown type code" "seg %d off %d code %d" seg !off (Obj.header_code hdr)
      end;
      (* A malformed header or an overrun ends the segment's parse. *)
      off := if len < 0 || next > used then used else next
    done
  done;
  { bits; base }

type fault = Interior | Pair_tag | Typed_tag | Young_entry | Marker_value

let[@inline] pointer_fault starts ~min_gen w (ti : Heap.seg_info) =
  let addr = Word.addr w in
  if not (is_start starts (Heap.seg_of_addr addr) ti (Heap.off_of_addr addr)) then Some Interior
  else if Word.is_pair_ptr w && not (is_pair_space ti.Heap.space) then Some Pair_tag
  else if Word.is_typed_ptr w && is_pair_space ti.Heap.space then Some Typed_tag
  else if ti.Heap.generation < min_gen then Some Young_entry
  else None

let[@inline] value_fault w = if Word.equal w Word.forward_marker then Some Marker_value else None

let fault_error h f kind a b k w =
  let l = slot_label h kind a b k in
  match f with
  | Interior ->
      let seg = Heap.seg_of_addr (Word.addr w) and off = Heap.off_of_addr (Word.addr w) in
      { what = "pointer to object interior"; where = Printf.sprintf "%s -> seg %d off %d" l seg off }
  | Pair_tag -> { what = "pair pointer into non-pair space"; where = l }
  | Typed_tag -> { what = "typed pointer into pair space"; where = l }
  | Young_entry ->
      let gen = (Heap.info_of_word h w).Heap.generation in
      { what = "protected entry younger than its list"; where = Printf.sprintf "%s (obj gen %d)" l gen }
  | Marker_value -> { what = "forwarding marker stored as a value"; where = l }

let verify h =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let err what where = add { what; where } in
  let errf what fmt = Printf.ksprintf (err what) fmt in
  let starts = object_starts h ~word:(fun seg off -> h.Heap.segs.(seg).(off)) ~err:add in
  let max_gen = Heap.max_generation h in
  (* Checks the word in slot [(kind, a, b, k)] of {!slot_label}: a pointer's
     target range, then {!pointer_fault}, its target word and the remembered
     set; any other word, {!value_fault}. *)
  let check_pointer kind a b k w =
    if not (Word.is_pointer w) then begin
      match value_fault w with Some f -> add (fault_error h f kind a b k w) | None -> ()
    end
    else
      let seg = Heap.seg_of_addr (Word.addr w) and off = Heap.off_of_addr (Word.addr w) in
      if seg < 0 || seg >= h.Heap.nsegs then
        errf "pointer to unknown segment" "%s -> seg %d" (slot_label h kind a b k) seg
      else
        let ti = Heap.info h seg in
        if not ti.Heap.live then
          err
            (if kind = Entry then "protected entry into freed segment"
             else "pointer into freed segment")
            (slot_label h kind a b k)
        else if off >= ti.Heap.used then
          errf "pointer past used area" "%s -> seg %d off %d used %d" (slot_label h kind a b k)
            seg off ti.Heap.used
        else
          match pointer_fault starts ~min_gen:(match kind with Entry -> a | _ -> 0) w ti with
          | Some f -> add (fault_error h f kind a b k w)
          | None -> (
              if Word.equal h.Heap.segs.(seg).(off) Word.forward_marker then
                err "pointer at forwarding marker outside collection" (slot_label h kind a b k);
              match kind with
              | Field ->
                  (* Remembered-set invariant: the card and the dirty list. *)
                  let fi = Heap.info h a and tgen = ti.Heap.generation in
                  if tgen < fi.Heap.generation then begin
                    if not fi.Heap.on_dirty_list then
                      errf "old-to-young pointer not remembered"
                        "%s: seg %d gen %d not on the dirty list -> gen %d"
                        (slot_label h kind a b k) a fi.Heap.generation tgen;
                    let from_off = if is_pair_space fi.Heap.space then b + k else b + 1 + k in
                    let card = Heap.card_of_off h from_off in
                    let cg = Heap.card_min_gen h ~seg:a ~card in
                    if tgen < cg then
                      errf "old-to-young pointer's card not marked"
                        "%s: seg %d card %d byte %d -> gen %d" (slot_label h kind a b k) a card
                        cg tgen
                  end
              | Global | Entry | Root _ -> ())
  in
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
      | Space.Typed ->
          (* [object_starts] marked each object it parsed: stop where it stopped. *)
          let off = ref 0 in
          while !off < si.Heap.used && is_start starts seg si !off do
            let o = !off and hdr = arr.(!off) in
            off := o + 1 + Obj.header_len hdr;
            if Obj.header_code hdr <> Obj.code_pad then
              for i = o + 1 to !off - 1 do
                check_pointer Field seg o (i - o - 1) arr.(i)
              done
          done
      | Space.Data -> ()
    end
  done;
  for i = 0 to h.Heap.global_cells_len - 1 do
    check_pointer Global i 0 0 h.Heap.global_cells.(i)
  done;
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
