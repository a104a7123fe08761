(** GC telemetry: a structured event stream with pluggable sinks.

    See the interface for the overview.  Design constraints:

    - {e zero cost when disabled}: every collector-side entry point
      checks [t.on] before taking a timestamp or building an event;
    - no dependency on {!Heap} (the heap owns a [Telemetry.t]), only on
      {!Stats} and {!Unix_time};
    - sinks are plain [event -> unit] closures, registered with ids so
      they can be detached independently. *)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

type phase =
  | Root_scan
  | Dirty_scan
  | Cheney_copy
  | Guardian_pass
  | Ephemeron_fixpoint
  | Weak_pass
  | Segment_reclaim
  | Image_save
  | Image_load

let phase_index = function
  | Root_scan -> 0
  | Dirty_scan -> 1
  | Cheney_copy -> 2
  | Guardian_pass -> 3
  | Ephemeron_fixpoint -> 4
  | Weak_pass -> 5
  | Segment_reclaim -> 6
  | Image_save -> 7
  | Image_load -> 8

type phase_row = {
  phase : phase;
  name : string;
  work : (Stats.counters -> int) option;
      (* the counter whose delta is a collection phase's work; the image
         phases pass theirs to [phase_end] *)
}

(* The one list of phases, in [phase_index] order. *)
let phases =
  let row phase name work = { phase; name; work } in
  [|
    row Root_scan "root-scan" (Some (fun c -> c.Stats.root_words));
    row Dirty_scan "dirty-scan" (Some (fun c -> c.Stats.card_words_swept));
    row Cheney_copy "cheney-copy" (Some (fun c -> c.Stats.words_swept));
    row Guardian_pass "guardian-pass"
      (Some (fun c -> c.Stats.protected_entries_visited));
    row Ephemeron_fixpoint "ephemeron-fixpoint"
      (Some (fun c -> c.Stats.ephemerons_scanned));
    row Weak_pass "weak-pass" (Some (fun c -> c.Stats.weak_pairs_scanned));
    row Segment_reclaim "segment-reclaim" (Some (fun c -> c.Stats.segments_freed));
    row Image_save "image-save" None;
    row Image_load "image-load" None;
  |]

let () = Array.iteri (fun i r -> assert (phase_index r.phase = i)) phases
let phase_count = Array.length phases
let all_phases = Array.to_list (Array.map (fun r -> r.phase) phases)

let collection_phases =
  List.filter (fun ph -> Option.is_some phases.(phase_index ph).work) all_phases

let phase_name ph = phases.(phase_index ph).name

let phase_work ph =
  match phases.(phase_index ph).work with
  | Some work -> work
  | None -> invalid_arg ("Telemetry.phase_work: " ^ phase_name ph)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

type event =
  | Collection_begin of {
      ordinal : int;
      generation : int;
      target : int;
      at_ns : float;
    }
  | Phase_begin of { ordinal : int; phase : phase; at_ns : float }
  | Phase_end of {
      ordinal : int;
      phase : phase;
      at_ns : float;
      duration_ns : float;
      work : int;
    }
  | Collection_end of {
      ordinal : int;
      generation : int;
      target : int;
      at_ns : float;
      duration_ns : float;
      counters : Stats.counters;
      session : (string * int) list;
      live_words : int;
    }

type sink = event -> unit

(* What a collection-end event exports, by name: the Log line and the
   Chrome args. *)
let end_values ~counters ~session ~live_words =
  Stats.to_list counters @ session @ [ ("live_words", live_words) ]

(* ------------------------------------------------------------------ *)
(* Pause-time histogram                                                *)

module Histogram = struct
  (* Bucket i counts durations d with 2^i <= d < 2^(i+1) ns; bucket 0
     also absorbs sub-nanosecond durations.  63 buckets cover every
     representable duration (2^62 ns is ~146 years). *)
  let nbuckets = 63

  type t = {
    counts : int array;
    mutable n : int;
    mutable max_ns : float;
  }

  let create () =
    { counts = Array.make nbuckets 0; n = 0; max_ns = 0. }

  let bucket_of_ns ns =
    let d = int_of_float ns in
    if d < 2 then 0
    else begin
      let rec lg v acc = if v < 2 then acc else lg (v lsr 1) (acc + 1) in
      min (nbuckets - 1) (lg d 0)
    end

  let lower i = if i = 0 then 0. else Float.pow 2. (float_of_int i)
  let upper i = Float.pow 2. (float_of_int (i + 1))

  let add t ns =
    let ns = Float.max ns 0. in
    t.counts.(bucket_of_ns ns) <- t.counts.(bucket_of_ns ns) + 1;
    t.n <- t.n + 1;
    if ns > t.max_ns then t.max_ns <- ns

  let count t = t.n
  let max_ns t = t.max_ns

  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let rank = Float.max 1. (Float.round (p /. 100. *. float_of_int t.n)) in
      let cum = ref 0 and result = ref t.max_ns and found = ref false in
      for i = 0 to nbuckets - 1 do
        if not !found then begin
          cum := !cum + t.counts.(i);
          if float_of_int !cum >= rank then begin
            found := true;
            result := Float.min (upper i) t.max_ns
          end
        end
      done;
      !result
    end

  let buckets t = Array.init nbuckets (fun i -> (lower i, upper i, t.counts.(i)))

  let nonempty_buckets t =
    Array.to_list (buckets t) |> List.filter (fun (_, _, c) -> c > 0)
end

(* ------------------------------------------------------------------ *)
(* Per-guardian metrics                                                *)

type guardian_stats = {
  mutable g_registrations : int;
  mutable g_resurrections : int;
  mutable g_drops : int;
  mutable g_polls : int;
  mutable g_hits : int;
  mutable g_latency_sum : int;
  mutable g_latency_max : int;
  g_pending_epochs : Vec.Int_ring.t;
}

(* ------------------------------------------------------------------ *)
(* The hub                                                             *)

type t = {
  mutable on : bool;
  mutable sinks : (int * sink) list;
  mutable next_sink_id : int;
  (* In-flight collection state.  The collector brackets one collection at
     a time (collections never nest), so scalar state suffices. *)
  mutable cur_ordinal : int;
  mutable cur_generation : int;
  mutable cur_target : int;
  mutable cur_begin_ns : float;
  phase_begin_ns : float array;
  phase_last_ns : float array;
  phase_last_work : int array;
  phase_total_ns : float array;
  phase_total_work : int array;
  mutable collections_seen : int;
  pauses : Histogram.t;
  mutable guardians : guardian_stats array;  (** indexed by gid *)
  mutable nguardians : int;
}

type telemetry = t

let create () =
  {
    on = false;
    sinks = [];
    next_sink_id = 0;
    cur_ordinal = 0;
    cur_generation = 0;
    cur_target = 0;
    cur_begin_ns = 0.;
    phase_begin_ns = Array.make phase_count 0.;
    phase_last_ns = Array.make phase_count 0.;
    phase_last_work = Array.make phase_count 0;
    phase_total_ns = Array.make phase_count 0.;
    phase_total_work = Array.make phase_count 0;
    collections_seen = 0;
    pauses = Histogram.create ();
    guardians = [||];
    nguardians = 0;
  }

let set_enabled t b = t.on <- b
let enabled t = t.on

let add_sink t sink =
  let id = t.next_sink_id in
  t.next_sink_id <- id + 1;
  t.sinks <- t.sinks @ [ (id, sink) ];
  id

let remove_sink t id = t.sinks <- List.filter (fun (i, _) -> i <> id) t.sinks

let emit t ev = List.iter (fun (_, sink) -> sink ev) t.sinks

let collection_begin t ~ordinal ~generation ~target =
  if t.on then begin
    let now = Unix_time.now_ns () in
    t.cur_ordinal <- ordinal;
    t.cur_generation <- generation;
    t.cur_target <- target;
    t.cur_begin_ns <- now;
    Array.fill t.phase_last_ns 0 phase_count 0.;
    Array.fill t.phase_last_work 0 phase_count 0;
    emit t (Collection_begin { ordinal; generation; target; at_ns = now })
  end

let phase_begin t phase =
  if t.on then begin
    let now = Unix_time.now_ns () in
    t.phase_begin_ns.(phase_index phase) <- now;
    emit t (Phase_begin { ordinal = t.cur_ordinal; phase; at_ns = now })
  end

let phase_end t phase ~work =
  if t.on then begin
    let now = Unix_time.now_ns () in
    let i = phase_index phase in
    let duration_ns = Float.max 0. (now -. t.phase_begin_ns.(i)) in
    t.phase_last_ns.(i) <- duration_ns;
    t.phase_last_work.(i) <- work;
    t.phase_total_ns.(i) <- t.phase_total_ns.(i) +. duration_ns;
    t.phase_total_work.(i) <- t.phase_total_work.(i) + work;
    emit t
      (Phase_end { ordinal = t.cur_ordinal; phase; at_ns = now; duration_ns; work })
  end

let collection_end t ~stats ~live_words =
  if t.on then begin
    let now = Unix_time.now_ns () in
    let duration_ns = Float.max 0. (now -. t.cur_begin_ns) in
    t.collections_seen <- t.collections_seen + 1;
    Histogram.add t.pauses duration_ns;
    emit t
      (Collection_end
         {
           ordinal = t.cur_ordinal;
           generation = t.cur_generation;
           target = t.cur_target;
           at_ns = now;
           duration_ns;
           counters = Stats.copy stats.Stats.last;
           session = Stats.session_to_list stats;
           live_words;
         })
  end

let collections_seen t = t.collections_seen
let phase_ns_last t phase = t.phase_last_ns.(phase_index phase)
let phase_work_last t phase = t.phase_last_work.(phase_index phase)
let phase_ns_total t phase = t.phase_total_ns.(phase_index phase)
let phase_work_total t phase = t.phase_total_work.(phase_index phase)
let pause_histogram t = t.pauses

(* ------------------------------------------------------------------ *)
(* Per-guardian metrics                                                *)

let fresh_guardian_stats () =
  {
    g_registrations = 0;
    g_resurrections = 0;
    g_drops = 0;
    g_polls = 0;
    g_hits = 0;
    g_latency_sum = 0;
    g_latency_max = 0;
    g_pending_epochs = Vec.Int_ring.create ();
  }

let new_guardian t =
  let gid = t.nguardians in
  if gid = Array.length t.guardians then begin
    let gs = Array.make (max 8 (2 * gid)) (fresh_guardian_stats ()) in
    Array.blit t.guardians 0 gs 0 gid;
    t.guardians <- gs
  end;
  t.guardians.(gid) <- fresh_guardian_stats ();
  t.nguardians <- gid + 1;
  gid

let guardian_count t = t.nguardians

let guardian_stats t gid =
  if gid < 0 || gid >= t.nguardians then
    invalid_arg "Telemetry.guardian_stats: unknown guardian id";
  t.guardians.(gid)

let record_registration t ~gid =
  let g = guardian_stats t gid in
  g.g_registrations <- g.g_registrations + 1

let record_resurrection t ~gid ~epoch =
  let g = guardian_stats t gid in
  g.g_resurrections <- g.g_resurrections + 1;
  (* The tconc is FIFO and only the guardian's retrieve dequeues it, so a
     FIFO of resurrection epochs stays aligned with the queued objects.
     An int ring, not a [Queue]: an entry can wait several collections
     for its poll, and a queue cell would be promoted to the major heap. *)
  Vec.Int_ring.push g.g_pending_epochs epoch

let record_drop t ~gid =
  let g = guardian_stats t gid in
  g.g_drops <- g.g_drops + 1

let record_poll t ~gid ~hit ~epoch =
  let g = guardian_stats t gid in
  g.g_polls <- g.g_polls + 1;
  if hit then begin
    g.g_hits <- g.g_hits + 1;
    if not (Vec.Int_ring.is_empty g.g_pending_epochs) then begin
      let resurrected_at = Vec.Int_ring.pop g.g_pending_epochs in
      let latency = max 0 (epoch - resurrected_at) in
      g.g_latency_sum <- g.g_latency_sum + latency;
      if latency > g.g_latency_max then g.g_latency_max <- latency
    end
  end

let restore_guardian_count t n =
  (* Re-create the id space of a restored heap image: guardian objects in
     the image carry gids in [0 .. n); each must resolve in
     [guardian_stats] before any post-restore registration. *)
  while t.nguardians < n do
    ignore (new_guardian t)
  done

(* ------------------------------------------------------------------ *)
(* Ring sink                                                           *)

module Ring = struct
  type record = {
    ordinal : int;
    generation : int;
    target : int;
    duration_ns : float;
    phase_ns : float array;
    phase_work : int array;
    counters : Stats.counters;
    live_words_after : int;
  }

  type t = {
    tel : telemetry;
    ring : record option array;
    mutable next : int;
    mutable total : int;
    sink_id : int;
  }

  let attach ?(capacity = 64) tel =
    if capacity <= 0 then invalid_arg "Telemetry.Ring.attach: capacity";
    let r_ref = ref None in
    let sink_id =
      add_sink tel (function
        | Collection_end { ordinal; generation; target; duration_ns; counters; live_words; _ }
          -> (
            match !r_ref with
            | None -> ()
            | Some r ->
                let rec_ =
                  {
                    ordinal;
                    generation;
                    target;
                    duration_ns;
                    phase_ns = Array.copy tel.phase_last_ns;
                    phase_work = Array.copy tel.phase_last_work;
                    counters;
                    live_words_after = live_words;
                  }
                in
                r.ring.(r.next) <- Some rec_;
                r.next <- (r.next + 1) mod Array.length r.ring;
                r.total <- r.total + 1)
        | _ -> ())
    in
    let r =
      { tel; ring = Array.make capacity None; next = 0; total = 0; sink_id }
    in
    r_ref := Some r;
    r

  let detach r = remove_sink r.tel r.sink_id

  let records r =
    let n = Array.length r.ring in
    let out = ref [] in
    (* Slot [next + i] holds the (i+1)-th oldest retained record; walking i
       downward and prepending yields oldest-first. *)
    for i = n - 1 downto 0 do
      match r.ring.((r.next + i) mod n) with
      | Some rc -> out := rc :: !out
      | None -> ()
    done;
    !out

  let total_recorded r = r.total
end

(* ------------------------------------------------------------------ *)
(* Human log sink                                                      *)

module Log = struct
  let attach tel ppf =
    add_sink tel (function
      | Collection_end
          { ordinal; generation; target; duration_ns; counters; session; live_words; _ }
        ->
          Format.fprintf ppf "[gc #%d] gen %d->%d %.1fus |" ordinal generation
            target (duration_ns /. 1e3);
          List.iter
            (fun ph ->
              Format.fprintf ppf " %s %.1fus/%dw" (phase_name ph)
                (phase_ns_last tel ph /. 1e3)
                (phase_work_last tel ph))
            all_phases;
          Format.pp_print_string ppf " |";
          List.iter
            (fun (name, v) -> Format.fprintf ppf " %s %d" name v)
            (end_values ~counters ~session ~live_words);
          Format.fprintf ppf "@."
      | _ -> ())
end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event sink                                             *)

module Chrome = struct
  type t = {
    tel : telemetry;
    oc : out_channel;
    mutable first : bool;
    mutable t0_ns : float;  (** nan until the first event fixes the origin *)
    mutable sink_id : int;
    mutable closed : bool;
  }

  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* One trace_event object.  [args] values must already be JSON
     fragments (numbers here). *)
  let write_event w ~name ~ph ~at_ns args =
    if Float.is_nan w.t0_ns then w.t0_ns <- at_ns;
    let ts_us = (at_ns -. w.t0_ns) /. 1e3 in
    if w.first then w.first <- false else output_string w.oc ",\n";
    Printf.fprintf w.oc
      "{\"name\":\"%s\",\"cat\":\"gc\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1"
      (escape name) ph ts_us;
    (match args with
    | [] -> ()
    | args ->
        output_string w.oc ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then output_string w.oc ",";
            Printf.fprintf w.oc "\"%s\":%s" (escape k) v)
          args;
        output_string w.oc "}");
    output_string w.oc "}"

  let attach tel oc =
    let w =
      { tel; oc; first = true; t0_ns = Float.nan; sink_id = -1; closed = false }
    in
    output_string oc "[\n";
    let sink = function
      | Collection_begin { ordinal; generation; target; at_ns } ->
          write_event w ~name:"collection" ~ph:"B" ~at_ns
            [
              ("ordinal", string_of_int ordinal);
              ("generation", string_of_int generation);
              ("target", string_of_int target);
            ]
      | Phase_begin { phase; at_ns; _ } ->
          write_event w ~name:(phase_name phase) ~ph:"B" ~at_ns []
      | Phase_end { phase; at_ns; work; _ } ->
          write_event w ~name:(phase_name phase) ~ph:"E" ~at_ns
            [ ("work", string_of_int work) ]
      | Collection_end { at_ns; counters; session; live_words; _ } ->
          write_event w ~name:"collection" ~ph:"E" ~at_ns
            (List.map
               (fun (name, v) -> (name, string_of_int v))
               (end_values ~counters ~session ~live_words))
    in
    w.sink_id <- add_sink tel sink;
    w

  let close w =
    if not w.closed then begin
      w.closed <- true;
      remove_sink w.tel w.sink_id;
      output_string w.oc "\n]\n";
      flush w.oc
    end
end
