(* Small harness around Bechamel: run a group of tests, print one
   estimated-time row per test, plus fixed-width counter tables. *)

open Bechamel
open Toolkit

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

(** Run Bechamel tests and print ns/run estimates. *)
let run_tests ?(quota = 0.5) tests =
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) analyzed [] in
      List.iter
        (fun name ->
          let est = Hashtbl.find analyzed name in
          let time =
            match Analyze.OLS.estimates est with
            | Some (t :: _) -> t
            | _ -> nan
          in
          let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
          Printf.printf "  %-48s %12.1f ns/run   (r²=%.3f)\n" name time r2)
        (List.sort compare names))
    tests

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

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (r, (t1 -. t0) *. 1e6)
(* microseconds *)

let fmt_us us = Printf.sprintf "%.1f" us

(* ------------------------------------------------------------------ *)
(* GC telemetry aggregation: heaps created through make_heap/make_ctx
   report every collection into the aggregate of the benchmark currently
   running (see [benchmark]); [write_gc_json] dumps all aggregates. *)

module Gc_report = struct
  open Gbc_runtime

  type agg = {
    bench : string;
    mutable collections : int;
    mutable pauses_us : float list;  (* one entry per collection *)
    phase_ns : float array;  (* indexed by Telemetry.phase_index *)
    phase_work : int array;
    totals : Stats.counters;  (* per-collection counters, summed *)
    (* Session counters, summed over this benchmark's heaps when the
       benchmark finishes (the heaps list is dropped then). *)
    mutable heaps : Heap.t list;
    mutable session : (string * int) list;
    mutable extras : (string * float) list;
        (* benchmark-specific scalars, emitted under "extra" *)
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
            | Telemetry.Collection_end { duration_ns; counters; _ } ->
                agg.collections <- agg.collections + 1;
                agg.pauses_us <- (duration_ns /. 1e3) :: agg.pauses_us;
                List.iter
                  (fun ph ->
                    let i = Telemetry.phase_index ph in
                    agg.phase_ns.(i) <-
                      agg.phase_ns.(i) +. Telemetry.phase_ns_last tel ph;
                    agg.phase_work.(i) <-
                      agg.phase_work.(i) + Telemetry.phase_work_last tel ph)
                  Telemetry.all_phases;
                Stats.add ~into:agg.totals counters
            | _ -> ()))

  let start bench =
    current :=
      Some
        {
          bench;
          collections = 0;
          pauses_us = [];
          phase_ns = Array.make Telemetry.phase_count 0.0;
          phase_work = Array.make Telemetry.phase_count 0;
          totals = Stats.zero ();
          heaps = [];
          session = Stats.session_to_list (Stats.create ());
          extras = [];
        }

  (* Record a benchmark-specific scalar under the running benchmark's
     "extra" JSON object (latest value wins per key). *)
  let add_extra key value =
    match !current with
    | None -> ()
    | Some agg -> agg.extras <- (key, value) :: List.remove_assoc key agg.extras

  let finish () =
    match !current with
    | None -> ()
    | Some agg ->
        List.iter
          (fun h ->
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

  let write path =
    let buf = Buffer.create 4096 in
    let bprintf fmt = Printf.bprintf buf fmt in
    bprintf "{\n  \"schema\": \"gbc-bench-gc/1\",\n  \"benchmarks\": [\n";
    let aggs = List.rev !finished in
    List.iteri
      (fun bi agg ->
        let pauses = Array.of_list agg.pauses_us in
        Array.sort compare pauses;
        let total_phase_ns = Array.fold_left ( +. ) 0.0 agg.phase_ns in
        let c = Stats.to_list agg.totals in
        let counter name = List.assoc name c in
        let session name = List.assoc name agg.session in
        let ratio a b = float_of_int a /. float_of_int (max 1 b) in
        (* Every counter under its export name from the [Stats] table. *)
        let obj l =
          String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) l)
        in
        bprintf "    {\n      \"name\": %S,\n" agg.bench;
        bprintf "      \"collections\": %d,\n" agg.collections;
        bprintf
          "      \"pause_us\": {\"p50\": %.3f, \"p95\": %.3f, \"max\": %.3f},\n"
          (percentile pauses 50.0) (percentile pauses 95.0)
          (if Array.length pauses = 0 then 0.0
           else pauses.(Array.length pauses - 1));
        bprintf "      \"phases\": {\n";
        List.iteri
          (fun i ph ->
            let share =
              if total_phase_ns > 0.0 then agg.phase_ns.(i) /. total_phase_ns
              else 0.0
            in
            bprintf "        %S: {\"ns\": %.0f, \"work\": %d, \"time_share\": %.4f}%s\n"
              (Gbc_runtime.Telemetry.phase_name ph)
              agg.phase_ns.(i) agg.phase_work.(i) share
              (if i = Gbc_runtime.Telemetry.phase_count - 1 then "" else ","))
          Gbc_runtime.Telemetry.all_phases;
        bprintf "      },\n";
        bprintf "      \"counters\": {%s},\n" (obj c);
        bprintf "      \"mutator\": {%s},\n" (obj agg.session);
        (* Write-barrier profile and the card table's dirty-scan win:
           card_words_swept / dirty_candidate_words is the fraction of a
           segment-granular scan's work the card-granular scan performed. *)
        bprintf
          "      \"barrier\": {\"calls\": %d, \"hits\": %d, \"hit_rate\": \
           %.6f, \"cards_dirtied\": %d},\n"
          (session "barrier_calls") (session "barrier_hits")
          (ratio (session "barrier_hits") (session "barrier_calls"))
          (session "cards_dirtied");
        bprintf
          "      \"dirty_scan\": {\"cards_per_dirty_segment\": %.3f, \
           \"words_ratio\": %.6f},\n"
          (ratio (counter "cards_scanned") (counter "dirty_segments_scanned"))
          (ratio (counter "card_words_swept") (counter "dirty_candidate_words"));
        if agg.extras <> [] then begin
          bprintf "      \"extra\": {";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then bprintf ", ";
              bprintf "%S: %.6f" k v)
            (List.rev agg.extras);
          bprintf "},\n"
        end;
        (* C1: collector-side guardian overhead relative to the copying and
           sweeping work already done.  C2: mutator polls per clean-up
           actually performed (DESIGN.md, Observability). *)
        bprintf "      \"c1_collector_overhead\": %.6f,\n"
          (ratio (counter "entries_visited")
             (counter "words_copied" + counter "words_swept"));
        bprintf "      \"c2_polls_per_cleanup\": %.6f\n"
          (ratio (session "polls") (session "hits"));
        bprintf "    }%s\n" (if bi = List.length aggs - 1 then "" else ","))
      aggs;
    bprintf "  ]\n}\n";
    let oc = open_out path in
    Buffer.output_buffer oc buf;
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

let write_gc_json = Gc_report.write
