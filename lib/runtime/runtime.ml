(** Collection scheduling: safepoints, the volume schedule, and the
    collect-request handler (paper Section 3).

    Mutator allocation itself never collects; instead, code that holds no
    unrooted words calls {!safepoint}, and once enough generation-0
    allocation has accumulated a {e collect request} fires.  By default the
    request collects by promoted volume (see {!collect_auto}); a program
    may install its own collect-request handler — e.g. to run
    [close-dropped-ports] after each collection, as in the paper — in
    which case the handler is responsible for calling {!collect_auto} (or
    not). *)

(** Collect generations [0..gen] immediately. *)
let collect ?gen h =
  let g = match gen with Some g -> g | None -> 0 in
  Collector.collect h ~gen:g

(* Generation 1's budget is [gen0_trigger_words / budget_divisor]
   promoted words; each older generation's is [ratio] times the one
   below.  Both were chosen by the sweep in EXPERIMENTS.md E25. *)
let budget_divisor = 8
let ratio = 2

(** Collect generation 0, and [g + 1] while the words promoted into
    [g + 1] since it was last collected exceed its budget. *)
let collect_auto h =
  let promoted = h.Heap.promoted_words and max = Heap.max_generation h in
  let rec pick g budget =
    if g < max && promoted.(g + 1) > budget then pick (g + 1) (budget * ratio) else g
  in
  Collector.collect h ~gen:(pick 0 ((Heap.config h).Config.gen0_trigger_words / budget_divisor))

let set_collect_request_handler h handler =
  h.Heap.collect_request_handler <- handler

(** Fire a collect request now: run the installed handler, or [collect_auto]
    when none is installed. *)
let request_collect h =
  match h.Heap.collect_request_handler with
  | Some handler -> handler h
  | None -> ignore (collect_auto h)

(* The safepoint's slow path: a poisoned heap raises, and enough
   allocation outside a collection serves a collect request. *)
let[@inline never] safepoint_slow h =
  Heap.check_poisoned h;
  if
    (Heap.stats h).Stats.words_allocated_since_gc >= (Heap.config h).Config.gen0_trigger_words
    && not h.Heap.in_collection
  then request_collect h

(** Declare a safepoint: no unrooted heap words are live in the caller.  If
    enough allocation has accumulated, serve a collect request.  One
    compare, against a limit {!Heap.poison} forces low. *)
let[@inline] safepoint h =
  if (Heap.stats h).Stats.words_allocated_since_gc >= h.Heap.safepoint_limit then safepoint_slow h
