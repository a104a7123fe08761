(** Collection scheduling: safepoints, the volume schedule, and the
    collect-request handler (paper Section 3).

    Mutator allocation never collects; code that holds no unrooted words
    calls {!safepoint}, and once enough generation-0 allocation has
    accumulated a collect request fires.  A program may install its own
    collect-request handler — e.g. to run [close-dropped-ports] after each
    collection, as in the paper — in which case the handler is responsible
    for calling {!collect_auto} (or not). *)

val collect : ?gen:int -> Heap.t -> Collector.outcome
(** Collect generations [0..gen] (default 0) immediately. *)

val collect_auto : Heap.t -> Collector.outcome
(** Collect by promoted volume: generation 0, and generation [g + 1]
    while the words promoted into it since it was last collected
    ({!Heap.t.promoted_words}) exceed its budget.  Generation 1's budget
    is an eighth of [gen0_trigger_words]; each older generation's is
    twice the one below.  Survivors of the oldest generation are never
    promotion, so a live set already there does not make requests
    collect it again. *)

val set_collect_request_handler : Heap.t -> (Heap.t -> unit) option -> unit

val safepoint : Heap.t -> unit
(** Declare that the caller holds no unrooted heap words; serve a collect
    request if allocation since the last collection exceeds the trigger.
    @raise Heap.Poisoned if a collection of the heap was aborted. *)
