(** Collection scheduling: safepoints, the generation schedule, and the
    collect-request handler (paper Section 3).

    Mutator allocation never collects; code that holds no unrooted words
    calls {!safepoint}, and once enough generation-0 allocation has
    accumulated a collect request fires.  A program may install its own
    collect-request handler — e.g. to run [close-dropped-ports] after each
    collection, as in the paper — in which case the handler is responsible
    for calling {!collect_auto} (or not). *)

val collect : ?gen:int -> Heap.t -> Collector.outcome
(** Collect generations [0..gen] (default 0) immediately. *)

val scheduled_generation : radix:int -> max_generation:int -> int -> int
(** Oldest generation due at the given request count: generation 0 every
    time, generation [g] every [radix]{^ g} requests. *)

val collect_auto : Heap.t -> Collector.outcome
(** Collect according to the schedule, advancing the request counter. *)

val set_collect_request_handler : Heap.t -> (Heap.t -> unit) option -> unit

val safepoint : Heap.t -> unit
(** Declare that the caller holds no unrooted heap words; serve a collect
    request if allocation since the last collection exceeds the trigger.
    @raise Heap.Poisoned if a collection of the heap was aborted. *)
