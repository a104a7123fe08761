(* Bench helpers: fixed-width tables, timing on the monotonic clock, and
   the GC telemetry report. *)

let section title = Printf.printf "\n==== %s ====\n%!" title

let subsection title = Printf.printf "\n-- %s --\n%!" title

(** Print a table: header row then int rows. *)
let table ~header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i c -> Printf.printf "%s%*s" (if i = 0 then "  " else "  ") (List.nth widths i) c)
      cells;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

(** Run [f] once; return its result and the elapsed microseconds. *)
let time_once f =
  let t0 = Gbc_runtime.Unix_time.now_ns () in
  let r = f () in
  (r, (Gbc_runtime.Unix_time.now_ns () -. t0) /. 1e3)

(** Run [f] [iters] times; return the mean nanoseconds per iteration. *)
let ns_per_iter ~iters f =
  let (), us = time_once (fun () -> for _ = 1 to iters do f () done) in
  us *. 1e3 /. float_of_int iters

let fmt_us us = Printf.sprintf "%.1f" us

(* ------------------------------------------------------------------ *)
(* GC telemetry aggregation: heaps created through make_heap/make_ctx
   report every collection into the aggregate of the benchmark currently
   running (see [benchmark]); [Gc_report.write] dumps all aggregates. *)

module Gc_report = struct
  open Gbc_runtime

  type agg = {
    bench : string;
    mutable pauses_us : float list;  (* one entry per collection *)
    (* Phase totals, lifetime counters and session counters, summed over
       this benchmark's heaps when the benchmark finishes (the heaps list
       is dropped then). *)
    phase_ns : float array;  (* indexed by Telemetry.phase_index *)
    phase_work : int array;
    totals : Stats.counters;
    mutable heaps : Heap.t list;
    mutable session : (string * int) list;
    mutable extras : (string * float) list;
        (* benchmark-specific count-derived scalars, emitted under "extra" *)
    mutable timing_extras : (string * float) list;
        (* clock-derived ones, emitted under "timing"."extra" *)
  }

  let current : agg option ref = ref None
  let finished : agg list ref = ref []

  (* Subscribe the heap's telemetry to the running benchmark's aggregate. *)
  let instrument_heap h =
    match !current with
    | None -> ()
    | Some agg ->
        agg.heaps <- h :: agg.heaps;
        let tel = Heap.telemetry h in
        Telemetry.set_enabled tel true;
        ignore
          (Telemetry.add_sink tel (function
            | Telemetry.Collection_end { duration_ns; _ } ->
                agg.pauses_us <- (duration_ns /. 1e3) :: agg.pauses_us
            | _ -> ()))

  let start bench =
    current :=
      Some
        {
          bench;
          pauses_us = [];
          phase_ns = Array.make Telemetry.phase_count 0.0;
          phase_work = Array.make Telemetry.phase_count 0;
          totals = Stats.zero ();
          heaps = [];
          session = Stats.session_to_list (Stats.create ());
          extras = [];
          timing_extras = [];
        }

  (* Record a benchmark-specific scalar under the running benchmark's
     "extra" JSON object, or under "timing" if it derives from the clock. *)
  let add_extra ?(timing = false) key value =
    match !current with
    | None -> ()
    | Some agg when timing -> agg.timing_extras <- (key, value) :: agg.timing_extras
    | Some agg -> agg.extras <- (key, value) :: agg.extras

  let finish () =
    match !current with
    | None -> ()
    | Some agg ->
        List.iter
          (fun h ->
            let tel = Heap.telemetry h in
            List.iter
              (fun ph ->
                let i = Telemetry.phase_index ph in
                agg.phase_ns.(i) <- agg.phase_ns.(i) +. Telemetry.phase_ns_total tel ph;
                agg.phase_work.(i) <- agg.phase_work.(i) + Telemetry.phase_work_total tel ph)
              Telemetry.collection_phases;
            Stats.add ~into:agg.totals (Heap.stats h).total;
            agg.session <-
              List.map2
                (fun (name, a) (_, b) -> (name, a + b))
                agg.session
                (Stats.session_to_list (Heap.stats h)))
          agg.heaps;
        agg.heaps <- [];
        current := None;
        finished := agg :: !finished

  (* Exact percentile of a sorted sample (nearest-rank). *)
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

  (* JSON objects from (key, rendered value) pairs: [obj] on one line,
     [block] one pair per line, closing at column [indent]. *)
  let obj show l =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (show v)) l) ^ "}"

  let block indent l =
    let pad = String.make indent ' ' in
    "{\n"
    ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "%s  %S: %s" pad k v) l)
    ^ "\n" ^ pad ^ "}"

  (* One benchmark's JSON object.  Every host-clock value sits under
     "timing"; everything else is a count or a ratio of counts, which
     repeats exactly between runs. *)
  let bench_json agg =
    let pauses = Array.of_list agg.pauses_us in
    Array.sort compare pauses;
    let total_phase_ns = Array.fold_left ( +. ) 0.0 agg.phase_ns in
    let c = Stats.to_list agg.totals in
    let counter name = List.assoc name c in
    let session name = List.assoc name agg.session in
    let ratio a b = float_of_int a /. float_of_int (max 1 b) in
    let f6 = Printf.sprintf "%.6f" in
    let phases show =
      obj show (List.map (fun ph -> (Telemetry.phase_name ph, Telemetry.phase_index ph))
                  Telemetry.all_phases)
    in
    let extra l = if l = [] then [] else [ ("extra", obj f6 (List.rev l)) ] in
    let timing =
      [
        ( "pause_us",
          obj (Printf.sprintf "%.3f")
            (List.map (fun (k, p) -> (k, percentile pauses p))
               [ ("p50", 50.0); ("p95", 95.0); ("max", 100.0) ]) );
        ( "phases",
          phases (fun i ->
              Printf.sprintf "{\"ns\": %.0f, \"time_share\": %.4f}" agg.phase_ns.(i)
                (if total_phase_ns > 0.0 then agg.phase_ns.(i) /. total_phase_ns else 0.0)) );
      ]
      @ extra agg.timing_extras
    in
    (* Write-barrier profile and the card table's dirty-scan win:
       card_words_swept / dirty_candidate_words is the fraction of a
       segment-granular scan's work the card-granular scan performed.
       C1: collector-side guardian overhead relative to the copying and
       sweeping work already done.  C2: mutator polls per clean-up
       actually performed (DESIGN.md, Observability). *)
    block 4
      ([
         ("name", Printf.sprintf "%S" agg.bench);
         ("collections", string_of_int (counter "collections"));
         ("phases", phases (fun i -> Printf.sprintf "{\"work\": %d}" agg.phase_work.(i)));
         ("counters", obj string_of_int c);
         ("mutator", obj string_of_int agg.session);
         ( "barrier",
           Printf.sprintf "{\"calls\": %d, \"hits\": %d, \"hit_rate\": %.6f, \"cards_dirtied\": %d}"
             (session "barrier_calls") (session "barrier_hits")
             (ratio (session "barrier_hits") (session "barrier_calls"))
             (session "cards_dirtied") );
         ( "dirty_scan",
           obj f6
             [
               ("cards_per_dirty_segment",
                ratio (counter "cards_scanned") (counter "dirty_segments_scanned"));
               ("words_ratio", ratio (counter "card_words_swept") (counter "dirty_candidate_words"));
             ] );
       ]
      @ extra agg.extras
      @ [
          ( "c1_collector_overhead",
            f6 (ratio (counter "entries_visited") (counter "words_copied" + counter "words_swept"))
          );
          ("c2_polls_per_cleanup", f6 (ratio (session "polls") (session "hits")));
          ("timing", block 6 timing);
        ])

  let write path =
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"schema\": \"gbc-bench-gc/2\",\n  \"benchmarks\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.rev_map (fun agg -> "    " ^ bench_json agg) !finished));
    close_out oc
end

(** Instrumented constructors: use these in benchmarks so collections are
    credited to the running benchmark's GC aggregate. *)
let make_heap ?config () =
  let h = Gbc_runtime.Heap.create ?config () in
  Gc_report.instrument_heap h;
  h

let make_ctx ?config ?fd_limit () =
  let ctx = Gbc.Ctx.create ?config ?fd_limit () in
  Gc_report.instrument_heap (Gbc.Ctx.heap ctx);
  ctx

(** Run one named benchmark, crediting its heaps' collections to a fresh
    aggregate for the GC report. *)
let benchmark name f =
  Gc_report.start name;
  Fun.protect ~finally:Gc_report.finish f
