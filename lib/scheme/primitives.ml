(** The primitive procedures installed into a fresh machine.

    Primitives never trigger a collection (safepoints live in the VM's call
    instruction), so they may freely work with raw argument words. *)

open Gbc_runtime
module Port = Gbc.Port

let err = Machine.error

let bool b = Word.of_bool b

let want_fixnum name w =
  if Word.is_fixnum w then Word.to_fixnum w
  else err "%s: expected a fixnum" name

let want_char name w =
  if Word.is_char w then Word.to_char w else err "%s: expected a character" name

let want_pair name h w =
  if Word.is_pair_ptr w then w else err "%s: expected a pair, got %s" name (Printer.to_string h w)

let want_string name h w =
  if Obj.is_string h w then w else err "%s: expected a string" name

let want_vector name h w =
  if Obj.is_vector h w then w else err "%s: expected a vector" name

let want_guardian name h w =
  if Guardian.is_guardian h w then w else err "%s: expected a guardian" name

let want_port name h w = if Port.is_port h w then w else err "%s: expected a port" name

(* Numeric tower: fixnums and flonums. *)
type num = Fix of int | Flo of float

(* The one fixnum overflow check: an exact result outside the fixnum range
   is a Scheme error, never a wrapped value. *)
let fixnum name n =
  if n < Word.fixnum_min || n > Word.fixnum_max then err "%s: fixnum overflow" name
  else Word.of_fixnum n

let to_num name h w =
  if Word.is_fixnum w then Fix (Word.to_fixnum w)
  else if Obj.is_flonum h w then Flo (Obj.flonum_value h w)
  else err "%s: expected a number" name

let of_num name h = function Fix n -> fixnum name n | Flo f -> Obj.make_flonum h f

let to_float = function Fix n -> float_of_int n | Flo f -> f

let num_binop name fi ff h a b =
  match (to_num name h a, to_num name h b) with
  | Fix x, Fix y -> Fix (fi x y)
  | x, y -> Flo (ff (to_float x) (to_float y))

let num_cmp name fi ff h a b =
  match (to_num name h a, to_num name h b) with
  | Fix x, Fix y -> fi x y
  | x, y -> ff (to_float x) (to_float y)

(* Fold the arguments [lo .. hi - 1], each step range-checked. *)
let fold_num name fi ff h init m lo hi =
  let acc = ref init in
  for i = lo to hi - 1 do
    acc := num_binop name fi ff h (of_num name h !acc) (Machine.arg m i)
  done;
  of_num name h !acc

(* Exactly two fixnum arguments: the numeric primitives' direct path. *)
let two_fixnums m b n =
  n = 2 && Word.is_fixnum (Machine.arg m b) && Word.is_fixnum (Machine.arg m (b + 1))

(* Tagged fixnum words order like the integers they carry. *)
let chain_cmp name fi ff h m b n =
  if two_fixnums m b n then bool (fi (Machine.arg m b) (Machine.arg m (b + 1)))
  else
    let ok = ref true in
    for i = b to b + n - 2 do
      if not (num_cmp name fi ff h (Machine.arg m i) (Machine.arg m (i + 1))) then ok := false
    done;
    bool !ok

let eqv h a b =
  Word.equal a b
  || (Obj.is_flonum h a && Obj.is_flonum h b && Obj.flonum_value h a = Obj.flonum_value h b)

let rec equal h a b =
  eqv h a b
  || (Word.is_pair_ptr a && Word.is_pair_ptr b
      && equal h (Obj.car h a) (Obj.car h b)
      && equal h (Obj.cdr h a) (Obj.cdr h b))
  || (Obj.is_string h a && Obj.is_string h b
      && String.equal (Obj.string_to_ocaml h a) (Obj.string_to_ocaml h b))
  || (Obj.is_vector h a && Obj.is_vector h b
      && Obj.vector_length h a = Obj.vector_length h b
      &&
      let n = Obj.vector_length h a in
      let rec loop i =
        i >= n || (equal h (Obj.vector_ref h a i) (Obj.vector_ref h b i) && loop (i + 1))
      in
      loop 0)

(* The one walker of the list searches: call [stop] on each pair of [l]
   until it returns true, and return that pair, or #f at the end.  An
   improper tail or a cycle is an error naming [name].  The tortoise
   [slow] takes one step for the walk's two, so a cycle is caught only
   after every element has been visited. *)
let walk name h stop l =
  let rec go l slow n =
    if not (Word.is_pair_ptr l) then
      if Word.is_nil l then Word.false_ else err "%s: improper list" name
    else if stop l then l
    else
      let next = Obj.cdr h l in
      let slow = if n land 1 = 1 then Obj.cdr h slow else slow in
      if Word.equal next slow then err "%s: circular list" name else go next slow (n + 1)
  in
  go l l 0

let install (m : Machine.t) =
  let h = Machine.heap m in
  let ctx = Machine.ctx m in
  let arg = Machine.arg in
  let p name ~min ?max fn = Machine.define_prim m ~name ~arity_min:min ?arity_max:max fn in
  let p1 name fn = p name ~min:1 (fun m b _ -> fn m (arg m b)) in
  let p2 name fn = p name ~min:2 (fun m b _ -> fn m (arg m b) (arg m (b + 1))) in
  let p3 name fn = p name ~min:3 (fun m b _ -> fn m (arg m b) (arg m (b + 1)) (arg m (b + 2))) in
  let arg_list m b n = List.init n (fun i -> arg m (b + i)) in

  (* --- pairs and lists ------------------------------------------- *)
  p2 "cons" (fun _ a b -> Obj.cons h a b);
  p2 "weak-cons" (fun _ a b -> Obj.weak_cons h a b);
  p2 "ephemeron-cons" (fun _ a b -> Obj.ephemeron_cons h a b);
  p1 "ephemeron-pair?" (fun _ w -> bool (Obj.is_ephemeron h w));
  p1 "car" (fun _ w -> Obj.car h (want_pair "car" h w));
  p1 "cdr" (fun _ w -> Obj.cdr h (want_pair "cdr" h w));
  p2 "set-car!" (fun _ w v ->
      Obj.set_car h (want_pair "set-car!" h w) v;
      Word.void);
  p2 "set-cdr!" (fun _ w v ->
      Obj.set_cdr h (want_pair "set-cdr!" h w) v;
      Word.void);
  p1 "pair?" (fun _ w -> bool (Word.is_pair_ptr w));
  p1 "weak-pair?" (fun _ w -> bool (Obj.is_weak_pair h w));
  p1 "null?" (fun _ w -> bool (Word.is_nil w));
  p "list" ~min:0 ~max:(-1) (fun m b n ->
      let lst = ref Word.nil in
      for i = b + n - 1 downto b do
        lst := Obj.cons h (arg m i) !lst
      done;
      !lst);

  (* --- predicates and identity ----------------------------------- *)
  p2 "eq?" (fun _ a b -> bool (Word.equal a b));
  p2 "eqv?" (fun _ a b -> bool (eqv h a b));
  p2 "equal?" (fun _ a b -> bool (equal h a b));
  p1 "not" (fun _ w -> bool (Word.is_false w));
  p1 "boolean?" (fun _ w -> bool (Word.is_true w || Word.is_false w));
  p1 "symbol?" (fun _ w -> bool (Obj.is_symbol h w));
  p1 "string?" (fun _ w -> bool (Obj.is_string h w));
  p1 "char?" (fun _ w -> bool (Word.is_char w));
  p1 "number?" (fun _ w -> bool (Word.is_fixnum w || Obj.is_flonum h w));
  p1 "fixnum?" (fun _ w -> bool (Word.is_fixnum w));
  p1 "flonum?" (fun _ w -> bool (Obj.is_flonum h w));
  p1 "vector?" (fun _ w -> bool (Obj.is_vector h w));
  p1 "box?" (fun _ w -> bool (Obj.is_box h w));
  p1 "procedure?" (fun m w -> bool (Machine.is_procedure m w));
  p1 "guardian?" (fun _ w -> bool (Guardian.is_guardian h w));
  p1 "eof-object?" (fun _ w -> bool (Word.equal w Word.eof));
  p "eof-object" ~min:0 (fun _ _ _ -> Word.eof);
  p "void" ~min:0 (fun _ _ _ -> Word.void);

  (* --- arithmetic ------------------------------------------------- *)
  (* Two fixnums take a direct path, everything else the generic one. *)
  p "+" ~min:0 ~max:(-1) (fun m b n ->
      if two_fixnums m b n then fixnum "+" (Word.to_fixnum (arg m b) + Word.to_fixnum (arg m (b + 1)))
      else fold_num "+" ( + ) ( +. ) h (Fix 0) m b (b + n));
  p "*" ~min:0 ~max:(-1) (fun m b n -> fold_num "*" Word.mul_exact ( *. ) h (Fix 1) m b (b + n));
  p "-" ~min:1 ~max:(-1) (fun m b n ->
      if two_fixnums m b n then fixnum "-" (Word.to_fixnum (arg m b) - Word.to_fixnum (arg m (b + 1)))
      else if n = 1 then fold_num "-" ( - ) ( -. ) h (Fix 0) m b (b + 1)
      else fold_num "-" ( - ) ( -. ) h (to_num "-" h (arg m b)) m (b + 1) (b + n));
  p2 "/" (fun _ x y ->
      match (to_num "/" h x, to_num "/" h y) with
      | Fix a, Fix b -> if b = 0 then err "/: division by zero" else fixnum "/" (a / b)
      | a, b -> Obj.make_flonum h (to_float a /. to_float b));
  p2 "quotient" (fun _ a b ->
      let a = want_fixnum "quotient" a and b = want_fixnum "quotient" b in
      if b = 0 then err "quotient: division by zero" else fixnum "quotient" (a / b));
  p2 "remainder" (fun _ a b ->
      let a = want_fixnum "remainder" a and b = want_fixnum "remainder" b in
      if b = 0 then err "remainder: division by zero" else Word.of_fixnum (a mod b));
  p2 "modulo" (fun _ a b ->
      let a = want_fixnum "modulo" a and b = want_fixnum "modulo" b in
      if b = 0 then err "modulo: division by zero"
      else Word.of_fixnum (((a mod b) + b) mod b));
  p "=" ~min:2 ~max:(-1) (fun m b n -> chain_cmp "=" ( = ) ( = ) h m b n);
  p "<" ~min:2 ~max:(-1) (fun m b n -> chain_cmp "<" ( < ) ( < ) h m b n);
  p ">" ~min:2 ~max:(-1) (fun m b n -> chain_cmp ">" ( > ) ( > ) h m b n);
  p "<=" ~min:2 ~max:(-1) (fun m b n -> chain_cmp "<=" ( <= ) ( <= ) h m b n);
  p ">=" ~min:2 ~max:(-1) (fun m b n -> chain_cmp ">=" ( >= ) ( >= ) h m b n);
  p1 "zero?" (fun _ w -> bool (Word.equal w (Word.of_fixnum 0)));
  p1 "char->integer" (fun _ w -> Word.of_fixnum (Char.code (want_char "char->integer" w)));
  p1 "integer->char" (fun _ w -> Word.of_char (Char.chr (want_fixnum "integer->char" w land 0xff)));
  p1 "number->string" (fun _ w ->
      match to_num "number->string" h w with
      | Fix n -> Obj.string_of_ocaml h (string_of_int n)
      | Flo f -> Obj.string_of_ocaml h (Printf.sprintf "%.12g" f));

  (* --- strings and symbols ---------------------------------------- *)
  p "make-string" ~min:1 ~max:2 (fun m b n ->
      let len = want_fixnum "make-string" (arg m b) in
      let fill = if n > 1 then want_char "make-string" (arg m (b + 1)) else ' ' in
      Obj.make_string h ~len ~fill);
  p1 "string-length" (fun _ w -> Word.of_fixnum (Obj.string_length h (want_string "string-length" h w)));
  p2 "string-ref" (fun _ s i -> Word.of_char (Obj.string_ref h (want_string "string-ref" h s) (want_fixnum "string-ref" i)));
  p3 "string-set!" (fun _ s i c ->
      Obj.string_set h (want_string "string-set!" h s) (want_fixnum "string-set!" i)
        (want_char "string-set!" c);
      Word.void);
  p2 "string=?" (fun _ a b ->
      bool (String.equal (Obj.string_to_ocaml h (want_string "string=?" h a))
              (Obj.string_to_ocaml h (want_string "string=?" h b))));
  p "string-append" ~min:0 ~max:(-1) (fun m b n ->
      let parts = arg_list m b n |> List.map (fun w -> Obj.string_to_ocaml h (want_string "string-append" h w)) in
      Obj.string_of_ocaml h (String.concat "" parts));
  p3 "substring" (fun _ s i j ->
      let s = Obj.string_to_ocaml h (want_string "substring" h s) in
      let i = want_fixnum "substring" i and j = want_fixnum "substring" j in
      if i < 0 || j > String.length s || i > j then err "substring: bad range";
      Obj.string_of_ocaml h (String.sub s i (j - i)));
  p1 "string->symbol" (fun m w ->
      Symtab.intern (Machine.symtab m) (Obj.string_to_ocaml h (want_string "string->symbol" h w)));
  p1 "symbol->string" (fun _ w ->
      if not (Obj.is_symbol h w) then err "symbol->string: expected a symbol";
      Obj.string_of_ocaml h (Obj.symbol_name_string h w));

  (* --- vectors ----------------------------------------------------- *)
  p "make-vector" ~min:1 ~max:2 (fun m b n ->
      let len = want_fixnum "make-vector" (arg m b) in
      let init = if n > 1 then arg m (b + 1) else Word.of_fixnum 0 in
      Obj.make_vector h ~len ~init);
  p "vector" ~min:0 ~max:(-1) (fun m b n -> Obj.vector_of_list h (arg_list m b n));
  p1 "vector-length" (fun _ w -> Word.of_fixnum (Obj.vector_length h (want_vector "vector-length" h w)));
  p2 "vector-ref" (fun _ v i ->
      let v = want_vector "vector-ref" h v and i = want_fixnum "vector-ref" i in
      if i < 0 || i >= Obj.vector_length h v then err "vector-ref: index out of range";
      Obj.vector_ref h v i);
  p3 "vector-set!" (fun _ v i x ->
      let v = want_vector "vector-set!" h v and i = want_fixnum "vector-set!" i in
      if i < 0 || i >= Obj.vector_length h v then err "vector-set!: index out of range";
      Obj.vector_set h v i x;
      Word.void);

  (* --- records (backing define-record-type) ------------------------- *)
  p "%make-record" ~min:1 ~max:(-1) (fun m b n ->
      let r = Obj.make_record h ~tag:(arg m b) ~len:(n - 1) ~init:Word.false_ in
      List.iteri (Obj.record_set h r) (arg_list m (b + 1) (n - 1));
      r);
  p2 "%record?" (fun _ r tag ->
      bool (Obj.is_record h r && Word.equal (Obj.record_tag h r) tag));
  p3 "%record-field" (fun _ r tag i ->
      let i = want_fixnum "%record-field" i in
      if not (Obj.is_record h r && Word.equal (Obj.record_tag h r) tag) then
        err "record accessor: wrong record type";
      Obj.record_ref h r i);
  p "%record-field-set!" ~min:4 (fun m b _ ->
      let r = arg m b and tag = arg m (b + 1) in
      let i = want_fixnum "%record-field-set!" (arg m (b + 2)) in
      if not (Obj.is_record h r && Word.equal (Obj.record_tag h r) tag) then
        err "record mutator: wrong record type";
      Obj.record_set h r i (arg m (b + 3));
      Word.void);
  p1 "record?" (fun _ w -> bool (Obj.is_record h w));

  (* --- boxes ------------------------------------------------------- *)
  p1 "box" (fun _ w -> Obj.make_box h w);
  p1 "unbox" (fun _ w ->
      if not (Obj.is_box h w) then err "unbox: expected a box";
      Obj.box_ref h w);
  p2 "set-box!" (fun _ b w ->
      if not (Obj.is_box h b) then err "set-box!: expected a box";
      Obj.box_set h b w;
      Word.void);

  (* --- guardians and collection ----------------------------------- *)
  p "%make-guardian" ~min:0 (fun _ _ _ -> Guardian.make h);
  p2 "%guardian-register" (fun _ g obj ->
      Guardian.register h (want_guardian "guardian" h g) obj;
      Word.void);
  p3 "%guardian-register-rep" (fun _ g obj rep ->
      Guardian.register_with_rep h (want_guardian "guardian" h g) ~obj ~rep;
      Word.void);
  p1 "%guardian-retrieve" (fun _ g ->
      match Guardian.retrieve h (want_guardian "guardian" h g) with
      | Some w -> w
      | None -> Word.false_);
  p "collect" ~min:0 ~max:1 (fun m b n ->
      if n = 0 then ignore (Runtime.collect_auto h)
      else ignore (Collector.collect h ~gen:(want_fixnum "collect" (arg m b)));
      Word.void);
  p "gc-count" ~min:0 (fun _ _ _ ->
      Word.of_fixnum (Telemetry.collections_seen (Heap.telemetry h)));
  (* ((name . count) ...) with the export names of the Stats tables. *)
  let alist m pairs =
    List.fold_right
      (fun (name, v) l ->
        Obj.cons h (Obj.cons h (Symtab.intern (Machine.symtab m) name) (Word.of_fixnum v)) l)
      pairs Word.nil
  in
  p "gc-history" ~min:0 (fun m _ _ ->
      (* Most recent collections, oldest first, one alist each. *)
      match Machine.gc_ring m with
      | None -> Word.nil
      | Some ring ->
          List.fold_right
            (fun (r : Telemetry.Ring.record) l ->
              Obj.cons h
                (alist m
                   ([ ("ordinal", r.ordinal); ("generation", r.generation);
                      ("target", r.target); ("live_words", r.live_words_after) ]
                   @ Stats.to_list r.counters))
                l)
            (Telemetry.Ring.records ring) Word.nil);
  p "gc-phase-stats" ~min:0 (fun m _ _ ->
      (* One vector per phase, in phase order:
         #(name total-ns last-ns total-work last-work), ns as flonums. *)
      let tel = Heap.telemetry h in
      List.fold_right
        (fun ph l ->
          Obj.cons h
            (Obj.vector_of_list h
               [ Symtab.intern (Machine.symtab m) (Telemetry.phase_name ph);
                 Obj.make_flonum h (Telemetry.phase_ns_total tel ph);
                 Obj.make_flonum h (Telemetry.phase_ns_last tel ph);
                 Word.of_fixnum (Telemetry.phase_work_total tel ph);
                 Word.of_fixnum (Telemetry.phase_work_last tel ph) ])
            l)
        Telemetry.all_phases Word.nil);
  p "pause-histogram" ~min:0 (fun _ _ _ ->
      (* Non-empty log2 buckets of full-collection pause times, as
         #(lo-ns hi-ns count) with flonum bounds, smallest first. *)
      List.fold_right
        (fun (lo, hi, count) l ->
          Obj.cons h
            (Obj.vector_of_list h
               [ Obj.make_flonum h lo; Obj.make_flonum h hi; Word.of_fixnum count ])
            l)
        (Telemetry.Histogram.nonempty_buckets (Telemetry.pause_histogram (Heap.telemetry h)))
        Word.nil);
  p1 "%guardian-stats" (fun _ g ->
      (* #(registrations resurrections drops polls hits latency-sum
          latency-max pending) for one guardian. *)
      let gs = Guardian.stats h (want_guardian "guardian-stats" h g) in
      Obj.vector_of_list h
        (List.map Word.of_fixnum
           Telemetry.[ gs.g_registrations; gs.g_resurrections; gs.g_drops; gs.g_polls; gs.g_hits;
                       gs.g_latency_sum; gs.g_latency_max; Guardian.pending_count h g ]));
  p1 "eq-hash" (fun _ w -> Word.of_fixnum (Obj.eq_hash w land 0xFFFFFFFF));
  p1 "collect-request-handler" (fun m proc ->
      if Word.is_false proc then begin
        Runtime.set_collect_request_handler h None;
        Word.void
      end
      else begin
        if not (Machine.is_procedure m proc) then
          err "collect-request-handler: expected a procedure";
        let cell = Heap.new_cell h proc in
        Runtime.set_collect_request_handler h
          (Some
             (fun h' ->
               if Machine.in_handler m then ignore (Runtime.collect_auto h')
               else begin
                 Machine.set_in_handler m true;
                 Fun.protect
                   ~finally:(fun () -> Machine.set_in_handler m false)
                   (fun () ->
                     ignore (Machine.apply_closure m (Heap.read_cell h' cell) []))
               end));
        Word.void
      end);

  (* --- ports ------------------------------------------------------- *)
  p1 "open-input-file" (fun _ w ->
      Port.open_input ctx (Obj.string_to_ocaml h (want_string "open-input-file" h w)));
  p1 "open-output-file" (fun _ w ->
      Port.open_output ctx (Obj.string_to_ocaml h (want_string "open-output-file" h w)));
  p1 "close-input-port" (fun _ w ->
      Port.close ctx (want_port "close-input-port" h w);
      Word.void);
  p1 "close-output-port" (fun _ w ->
      Port.close ctx (want_port "close-output-port" h w);
      Word.void);
  p1 "flush-output-port" (fun _ w ->
      Port.flush ctx (want_port "flush-output-port" h w);
      Word.void);
  p1 "input-port?" (fun _ w -> bool (Port.is_port h w && Port.is_input h w));
  p1 "output-port?" (fun _ w -> bool (Port.is_port h w && Port.is_output h w));
  p1 "port?" (fun _ w -> bool (Port.is_port h w));
  p1 "port-closed?" (fun _ w -> bool (Port.is_closed h (want_port "port-closed?" h w)));
  p1 "read-char" (fun _ w ->
      match Port.read_char ctx (want_port "read-char" h w) with
      | Some c -> Word.of_char c
      | None -> Word.eof);
  p "write-char" ~min:1 ~max:2 (fun m b n ->
      let c = want_char "write-char" (arg m b) in
      if n > 1 then Port.write_char ctx (want_port "write-char" h (arg m (b + 1))) c
      else Machine.print_string m (String.make 1 c);
      Word.void);

  (* --- output ------------------------------------------------------ *)
  let print name ~display =
    p name ~min:1 ~max:2 (fun m b n ->
        let s = Printer.to_string ~display h (arg m b) in
        if n > 1 then Port.write_string ctx (want_port name h (arg m (b + 1))) s
        else Machine.print_string m s;
        Word.void)
  in
  print "display" ~display:true;
  print "write" ~display:false;
  p "newline" ~min:0 ~max:1 (fun m b n ->
      if n > 0 then Port.write_char ctx (want_port "newline" h (arg m b)) '\n'
      else Machine.print_string m "\n";
      Word.void);

  (* String ports, backed by hidden VFS files. *)
  (let counter = ref 0 in
   p1 "open-input-string" (fun _ w ->
       let s = Obj.string_to_ocaml h (want_string "open-input-string" h w) in
       incr counter;
       let name = Printf.sprintf "%%string-port-%d" !counter in
       Gbc_vfs.Vfs.write_file (Gbc.Ctx.vfs ctx) name s;
       Port.open_input ctx name);
   p "open-output-string" ~min:0 (fun _ _ _ ->
       incr counter;
       let name = Printf.sprintf "%%string-port-%d" !counter in
       Port.open_output ctx name));
  p1 "get-output-string" (fun _ w ->
      let port = want_port "get-output-string" h w in
      if not (Port.is_output h port) then err "get-output-string: not an output port";
      Port.flush ctx port;
      Obj.string_of_ocaml h (Gbc_vfs.Vfs.read_file (Gbc.Ctx.vfs ctx) (Port.name h port)));
  p1 "peek-char" (fun _ w ->
      match Port.peek_char ctx (want_port "peek-char" h w) with
      | Some c -> Word.of_char c
      | None -> Word.eof);
  p1 "read" (fun m w ->
      (* Read one datum from an input port: parse the unconsumed input,
         advance the port past the datum, materialize it. *)
      let port = want_port "read" h w in
      let src = Port.remaining_input ctx port in
      match Reader.read_prefix src with
      | None, consumed ->
          Port.advance_input ctx port consumed;
          Word.eof
      | Some d, consumed ->
          Port.advance_input ctx port consumed;
          Machine.materialize m d
      | exception Reader.Error msg -> err "read: %s" msg);

  (* --- characters and strings, extended ----------------------------- *)
  p2 "char=?" (fun _ a b -> bool (want_char "char=?" a = want_char "char=?" b));
  p2 "char<?" (fun _ a b -> bool (want_char "char<?" a < want_char "char<?" b));
  p2 "char>?" (fun _ a b -> bool (want_char "char>?" a > want_char "char>?" b));
  p1 "char-upcase" (fun _ w -> Word.of_char (Char.uppercase_ascii (want_char "char-upcase" w)));
  p1 "char-downcase" (fun _ w -> Word.of_char (Char.lowercase_ascii (want_char "char-downcase" w)));
  p1 "char-alphabetic?" (fun _ w ->
      let c = want_char "char-alphabetic?" w in
      bool ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')));
  p1 "char-numeric?" (fun _ w ->
      let c = want_char "char-numeric?" w in
      bool (c >= '0' && c <= '9'));
  p1 "char-whitespace?" (fun _ w ->
      match want_char "char-whitespace?" w with
      | ' ' | '\t' | '\n' | '\r' -> Word.true_
      | _ -> Word.false_);
  p2 "string<?" (fun _ a b ->
      bool
        (String.compare
           (Obj.string_to_ocaml h (want_string "string<?" h a))
           (Obj.string_to_ocaml h (want_string "string<?" h b))
        < 0));
  p1 "string-copy" (fun _ w ->
      Obj.string_of_ocaml h (Obj.string_to_ocaml h (want_string "string-copy" h w)));
  p1 "string->list" (fun _ w ->
      let s = Obj.string_to_ocaml h (want_string "string->list" h w) in
      let lst = ref Word.nil in
      for i = String.length s - 1 downto 0 do
        lst := Obj.cons h (Word.of_char s.[i]) !lst
      done;
      !lst);
  p1 "list->string" (fun _ w ->
      let chars = Obj.to_list h w |> List.map (want_char "list->string") in
      Obj.string_of_ocaml h (String.init (List.length chars) (List.nth chars)));
  p1 "string->number" (fun _ w ->
      let s = Obj.string_to_ocaml h (want_string "string->number" h w) in
      match Lexer.number s with
      | Some (Lexer.INT n) -> Word.of_fixnum n
      | Some (Lexer.FLOAT f) -> Obj.make_flonum h f
      | _ -> Word.false_);
  p "string" ~min:0 ~max:(-1) (fun m b n ->
      Obj.string_of_ocaml h (String.init n (fun i -> want_char "string" (arg m (b + i)))));
  p2 "vector-fill!" (fun _ v x ->
      let v = want_vector "vector-fill!" h v in
      for i = 0 to Obj.vector_length h v - 1 do
        Obj.vector_set h v i x
      done;
      Word.void);
  (let counter = ref 0 in
   p "gensym" ~min:0 ~max:1 (fun m _ _ ->
       incr counter;
       (* Uninterned identity is not supported; generate a fresh unlikely
          name instead. *)
       Symtab.intern (Machine.symtab m) (Printf.sprintf "g%%%d" !counter)));

  (* --- control ----------------------------------------------------- *)
  p1 "disassemble" (fun m w ->
      let h = Machine.heap m in
      if not (Obj.has_code h w Obj.code_closure) then err "disassemble: expected a closure";
      let id = Machine.closure_id m w in
      if id < 0 then Machine.print_string m (Printf.sprintf "#<primitive %d>\n" (-1 - id))
      else Machine.print_string m (Format.asprintf "%a" Instr.pp_code (Machine.code m id));
      Word.void);
  (* Dispatched by the VM's call logic (Machine.define_prim): never run. *)
  let special name _ _ _ = err "%s: internal error" name in
  p "apply" ~min:2 ~max:(-1) (special "apply");
  p "call-with-current-continuation" ~min:1 (special "call/cc");
  p "call/cc" ~min:1 (special "call/cc");
  p2 "with-error-handler" (fun m handler thunk ->
      if not (Machine.is_procedure m handler) then
        err "with-error-handler: handler must be a procedure";
      if not (Machine.is_procedure m thunk) then
        err "with-error-handler: thunk must be a procedure";
      Machine.call_with_error_handler m ~thunk ~handler);
  p "error" ~min:1 ~max:(-1) (fun m b n ->
      let parts =
        arg_list m b n
        |> List.map (fun w ->
               if Obj.is_string h w then Obj.string_to_ocaml h w
               else Printer.to_string h w)
      in
      err "error: %s" (String.concat " " parts));
  p "exit" ~min:0 ~max:1 (fun _ _ _ -> raise Machine.Exit_signal);

  (* --- heap images -------------------------------------------------- *)
  p1 "save-heap-image" (fun m w ->
      (* Checkpoint the whole system (heap + symbols + code + constants)
         to a gbc-image/1 file.  Captures global state, not the running
         VM activation: a later load-heap-image starts at top level. *)
      let path = Obj.string_to_ocaml h (want_string "save-heap-image" h w) in
      (try Scheme_image.save m path with
      | Gbc_image.Image.Error msg -> err "save-heap-image: %s" msg
      | Sys_error msg -> err "save-heap-image: %s" msg);
      Word.void);
  p1 "load-heap-image" (fun _ w ->
      (* The machine cannot replace itself; signal the owning driver,
         which swaps machines and discards the rest of this input. *)
      let path = Obj.string_to_ocaml h (want_string "load-heap-image" h w) in
      raise (Machine.Load_image_signal path));

  (* A restored image finds each primitive by its installation index, so
     new primitives go last: images saved by earlier builds still load. *)
  p "gc-counters" ~min:0 (fun m _ _ ->
      let s = Heap.stats h in
      alist m (Stats.to_list s.total @ Stats.session_to_list s));

  (* --- list searches ------------------------------------------------ *)
  (* [mem*] return the tail whose car matches, [ass*] the first element
     whose car matches; both #f when none does. *)
  let mem name test = p2 name (fun _ x l -> walk name h (fun p -> test x (Obj.car h p)) l) in
  let ass name test =
    p2 name (fun _ x l ->
        let p = walk name h (fun p -> test x (Obj.car h (want_pair name h (Obj.car h p)))) l in
        if Word.is_false p then p else Obj.car h p)
  in
  mem "memq" Word.equal;
  mem "memv" (eqv h);
  mem "member" (equal h);
  ass "assq" Word.equal;
  ass "assv" (eqv h);
  ass "assoc" (equal h);
  p2 "remq" (fun _ x l ->
      (* A fresh list of the other elements, in order, grown at its last
         pair.  Fresh pairs are young and a primitive never collects, so
         that cdr store is an initialisation and needs no barrier. *)
      let first = ref Word.nil and last = ref Word.nil in
      let keep p =
        let e = Obj.car h p in
        if not (Word.equal x e) then begin
          let c = Obj.cons h e Word.nil in
          if Word.is_nil !last then first := c else Heap.store h (Word.addr !last + 1) c;
          last := c
        end;
        false
      in
      ignore (walk "remq" h keep l);
      !first);
  ()
