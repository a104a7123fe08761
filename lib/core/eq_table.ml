(** Eq hash tables: address-hashed tables and the rehashing problem
    (paper Section 3).

    Eq tables hash arbitrary objects by their virtual-memory address, which
    a copying collector changes.  The classical fix is to rehash the table
    after every collection ({!strategy} [`Full_rehash]); the paper observes
    that in a generational collector most of that work is wasted on old keys
    that were not moved, and proposes rehashing only transported keys, found
    with a {!Transport_guardian} ([`Transport]).  Experiment E4 measures the
    difference with the [rehash_work] counter.

    Entries are strong: an eq table keeps its keys and values alive.  (For
    the weak, self-cleaning table, see {!Guarded_table}.) *)

open Gbc_runtime

type strategy = [ `Full_rehash | `Transport ]

(* Entry layout: a heap vector. *)
let e_key = 0
let e_value = 1
let e_bucket = 2
let e_active = 3
let entry_fields = 4

type t = {
  heap : Heap.t;
  buckets : Handle.t;
  size : int;
  strategy : strategy;
  transport : Transport_guardian.t option;
  mutable epoch : int;  (** heap gc_epoch the buckets were last valid for *)
  mutable count : int;
  mutable rehash_work : int;  (** entries re-bucketed since creation *)
}

let create heap ~strategy ~size =
  if size <= 0 then invalid_arg "Eq_table.create: size";
  {
    heap;
    buckets = Handle.create heap (Obj.make_vector heap ~len:size ~init:Word.nil);
    size;
    strategy;
    transport =
      (match strategy with
      | `Transport -> Some (Transport_guardian.create heap)
      | `Full_rehash -> None);
    epoch = Heap.gc_epoch heap;
    count = 0;
    rehash_work = 0;
  }

let dispose t =
  Handle.free t.buckets;
  Option.iter Transport_guardian.dispose t.transport

let hash_of t key = Obj.eq_hash key mod t.size

let bucket_push h v i entry = Obj.vector_set h v i (Obj.cons h entry (Obj.vector_ref h v i))

let bucket_remove h v i entry =
  let rec loop bucket =
    if Word.is_nil bucket then Word.nil
    else begin
      let e = Obj.car h bucket in
      if Word.equal e entry then Obj.cdr h bucket
      else Obj.cons h e (loop (Obj.cdr h bucket))
    end
  in
  Obj.vector_set h v i (loop (Obj.vector_ref h v i))

let relocate t entry =
  let h = t.heap in
  let v = Handle.get t.buckets in
  let old_i = Word.to_fixnum (Obj.vector_ref h entry e_bucket) in
  let key = Obj.vector_ref h entry e_key in
  let new_i = hash_of t key in
  t.rehash_work <- t.rehash_work + 1;
  if new_i <> old_i then begin
    bucket_remove h v old_i entry;
    bucket_push h v new_i entry;
    Obj.vector_set h entry e_bucket (Word.of_fixnum new_i)
  end

(* Bring the bucket structure up to date with the current addresses. *)
let refresh t =
  let h = t.heap in
  match t.strategy with
  | `Full_rehash ->
      if Heap.gc_epoch h <> t.epoch then begin
        t.epoch <- Heap.gc_epoch h;
        let v = Handle.get t.buckets in
        (* Unhook every entry, then re-bucket all of them. *)
        let entries = ref [] in
        for i = 0 to t.size - 1 do
          let rec loop bucket =
            if not (Word.is_nil bucket) then begin
              entries := Obj.car h bucket :: !entries;
              loop (Obj.cdr h bucket)
            end
          in
          loop (Obj.vector_ref h v i);
          Obj.vector_set h v i Word.nil
        done;
        List.iter
          (fun entry ->
            let key = Obj.vector_ref h entry e_key in
            let i = hash_of t key in
            t.rehash_work <- t.rehash_work + 1;
            bucket_push h v i entry;
            Obj.vector_set h entry e_bucket (Word.of_fixnum i))
          !entries
      end
  | `Transport ->
      let tg = Option.get t.transport in
      let moved = ref true in
      t.epoch <- Heap.gc_epoch h;
      while !moved do
        match
          Transport_guardian.poll_choose tg ~keep:(fun ~obj:_ ~payload ->
              Word.is_true (Obj.vector_ref h payload e_active))
        with
        | Some (_obj, entry) -> relocate t entry
        | None -> moved := false
      done

let find_entry t key =
  let h = t.heap in
  let v = Handle.get t.buckets in
  let rec loop bucket =
    if Word.is_nil bucket then None
    else begin
      let entry = Obj.car h bucket in
      if Word.equal (Obj.vector_ref h entry e_key) key then Some entry
      else loop (Obj.cdr h bucket)
    end
  in
  loop (Obj.vector_ref h v (hash_of t key))

let lookup t key =
  refresh t;
  let h = t.heap in
  match find_entry t key with
  | Some entry -> Some (Obj.vector_ref h entry e_value)
  | None -> None

let mem t key = lookup t key <> None

let set t key value =
  refresh t;
  let h = t.heap in
  match find_entry t key with
  | Some entry -> Obj.vector_set h entry e_value value
  | None ->
      Heap.with_cell h key (fun kc ->
          Heap.with_cell h value (fun vc ->
              let entry = Obj.make_vector h ~len:entry_fields ~init:Word.nil in
              let key = Heap.read_cell h kc and value = Heap.read_cell h vc in
              let i = hash_of t key in
              Obj.vector_set h entry e_key key;
              Obj.vector_set h entry e_value value;
              Obj.vector_set h entry e_bucket (Word.of_fixnum i);
              Obj.vector_set h entry e_active Word.true_;
              bucket_push h (Handle.get t.buckets) i entry;
              (match t.transport with
              | Some tg -> Transport_guardian.register tg key ~payload:entry
              | None -> ());
              t.count <- t.count + 1))

let remove t key =
  refresh t;
  let h = t.heap in
  match find_entry t key with
  | Some entry ->
      let i = Word.to_fixnum (Obj.vector_ref h entry e_bucket) in
      bucket_remove h (Handle.get t.buckets) i entry;
      Obj.vector_set h entry e_active Word.false_;
      t.count <- t.count - 1
  | None -> ()

let count t = t.count
let rehash_work t = t.rehash_work
