(** Collection scheduling: safepoints, the generation schedule, and the
    collect-request handler (paper Section 3).

    Mutator allocation itself never collects; instead, code that holds no
    unrooted words calls {!safepoint}, and once enough generation-0
    allocation has accumulated a {e collect request} fires.  By default the
    request collects according to the radix-4 schedule (generation [g] every
    4{^ g} requests); a program may install its own collect-request
    handler — e.g. to run [close-dropped-ports] after each collection, as in
    the paper — in which case the handler is responsible for calling
    {!collect_auto} (or not). *)

(** Collect generations [0..gen] immediately. *)
let collect ?gen h =
  let g = match gen with Some g -> g | None -> 0 in
  Collector.collect h ~gen:g

(** Oldest generation due for collection at request number [count]. *)
let scheduled_generation ~radix ~max_generation count =
  let rec loop g step =
    if g >= max_generation then max_generation
    else if count mod (step * radix) = 0 then loop (g + 1) (step * radix)
    else g
  in
  loop 0 1

(** Collect according to the generation schedule, advancing the request
    counter: generation 0 every time, generation [g] every 4{^ g}
    requests. *)
let collect_auto h =
  h.Heap.collect_count <- h.Heap.collect_count + 1;
  let gen =
    scheduled_generation ~radix:4 ~max_generation:(Heap.max_generation h)
      h.Heap.collect_count
  in
  Collector.collect h ~gen

let set_collect_request_handler h handler =
  h.Heap.collect_request_handler <- handler

(** Fire a collect request now: run the installed handler, or [collect_auto]
    when none is installed. *)
let request_collect h =
  match h.Heap.collect_request_handler with
  | Some handler -> handler h
  | None -> ignore (collect_auto h)

(** Declare a safepoint: no unrooted heap words are live in the caller.  If
    enough allocation has accumulated, serve a collect request. *)
let[@inline] safepoint h =
  Heap.check_poisoned h;
  let stats = Heap.stats h in
  if
    stats.Stats.words_allocated_since_gc
    >= (Heap.config h).Config.gen0_trigger_words
    && not h.Heap.in_collection
  then request_collect h
