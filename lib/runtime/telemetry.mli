(** GC telemetry: a structured event stream with pluggable sinks.

    The collector emits typed begin/end events for every phase of a
    collection, each stamped with monotonic wall-clock time
    ({!Unix_time.now_ns}) and the work counter the phase is responsible
    for.  Sinks subscribe to the stream; three are provided here: an
    in-memory ring of per-collection records ({!Ring}, superseding the old
    [Trace] module), a human one-line-per-collection pretty-printer
    ({!Log}), and a Chrome [trace_event]-format JSON writer ({!Chrome})
    that [about://tracing] / Perfetto can open directly.

    The stream is {e zero cost when disabled}: every instrumentation entry
    point checks a single boolean before taking any timestamp or touching
    any sink.  Per-guardian lifecycle metrics (registrations,
    resurrections, poll latency, drops) are plain counter bumps and are
    always on. *)

(** {1 Phases} *)

(** The phases of one collection, in the order the collector runs them
    (the guardian/weak order swaps under the D2 ablation). *)
type phase =
  | Root_scan  (** forwarding the registered roots *)
  | Dirty_scan  (** sweeping the remembered set *)
  | Cheney_copy  (** the first kleene sweep to a fixpoint *)
  | Guardian_pass
      (** the pend-hold / pend-final partition and kleene re-sweeps *)
  | Ephemeron_fixpoint  (** breaking ephemerons with unreachable keys *)
  | Weak_pass  (** mending or breaking weak-pair cars *)
  | Segment_reclaim
      (** weak-scanner notification, dirty-list rebuild, freeing from-space *)
  | Image_save  (** serializing the heap to a [gbc-image/1] byte string *)
  | Image_load
      (** rebuilding a heap from an image: copy, relocate, re-verify *)

val phase_count : int
val all_phases : phase list

val collection_phases : phase list
(** The phases every collection runs, in order — {!all_phases} without
    the image phases, which fire only on explicit checkpoint/restore. *)

val phase_index : phase -> int
val phase_name : phase -> string

val phase_work : phase -> Stats.counters -> int
(** The counter whose per-collection delta is a collection phase's
    [work].  The phases and their names and counters are one table in
    [telemetry.ml].
    @raise Invalid_argument on an image phase, which reports its own work. *)

(** {1 Events} *)

type event =
  | Collection_begin of {
      ordinal : int;  (** 1-based lifetime collection number *)
      generation : int;  (** oldest generation collected *)
      target : int;
      at_ns : float;
    }
  | Phase_begin of { ordinal : int; phase : phase; at_ns : float }
  | Phase_end of {
      ordinal : int;
      phase : phase;
      at_ns : float;
      duration_ns : float;
      work : int;  (** phase-specific work counter delta *)
    }
  | Collection_end of {
      ordinal : int;
      generation : int;
      target : int;
      at_ns : float;
      duration_ns : float;
      counters : Stats.counters;  (** snapshot of the collection's counters *)
      session : (string * int) list;
          (** snapshot of the session counters, {!Stats.session_to_list} *)
      live_words : int;
    }

type sink = event -> unit

(** {1 Pause-time histogram} *)

module Histogram : sig
  (** Log2-scaled pause-time histogram: bucket [i] counts durations in
      [\[2{^i}, 2{^i+1}) ns] (bucket 0 also absorbs sub-nanosecond
      durations). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val max_ns : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0..100]: an upper-bound estimate (the
      top of the bucket holding the p-th percentile, clamped to the
      observed maximum).  0 when empty. *)

  val buckets : t -> (float * float * int) array
  (** All buckets as [(lo, hi, count)], lo inclusive, hi exclusive,
      in increasing order. *)

  val nonempty_buckets : t -> (float * float * int) list
end

(** {1 The telemetry hub} *)

type t

type telemetry = t
(** Alias so submodules below can name the hub type. *)

val create : unit -> t
(** Created disabled: instrumentation entry points are no-ops until
    {!set_enabled}. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val add_sink : t -> sink -> int
(** Returns an id for {!remove_sink}.  Sinks only see events while the
    hub is enabled. *)

val remove_sink : t -> int -> unit

(** {2 Collector-side instrumentation}

    All no-ops while disabled.  One collection is bracketed by
    {!collection_begin} / {!collection_end}; each phase by
    {!phase_begin} / {!phase_end}, strictly nested and non-overlapping. *)

val collection_begin : t -> ordinal:int -> generation:int -> target:int -> unit
val phase_begin : t -> phase -> unit
val phase_end : t -> phase -> work:int -> unit

val collection_end : t -> stats:Stats.t -> live_words:int -> unit
(** The event carries private snapshots of [stats.last] and of the session
    counters, taken through the {!Stats} counter table: sinks may retain
    them. *)

(** {2 Accumulated results} *)

val collections_seen : t -> int
val phase_ns_last : t -> phase -> float
val phase_work_last : t -> phase -> int
val phase_ns_total : t -> phase -> float
val phase_work_total : t -> phase -> int

val pause_histogram : t -> Histogram.t
(** Full-collection pause times, accumulated while enabled. *)

(** {1 Per-guardian lifecycle metrics}

    Always on (plain counter bumps).  Guardians are identified by a small
    integer id allocated by {!new_guardian} and stored inside the guardian
    heap object itself, so the id survives copying collections. *)

type guardian_stats = {
  mutable g_registrations : int;
  mutable g_resurrections : int;  (** entries saved and queued *)
  mutable g_drops : int;  (** entries dropped because the guardian died *)
  mutable g_polls : int;  (** mutator retrieve calls *)
  mutable g_hits : int;  (** polls that returned an object *)
  mutable g_latency_sum : int;
      (** total collections elapsed between each hit's resurrection and
          its retrieval — the finalization-lag metric *)
  mutable g_latency_max : int;
  g_pending_epochs : Vec.Int_ring.t;
      (** resurrection epochs of queued-but-not-yet-retrieved entries;
          FIFO, mirroring the guardian's tconc *)
}

val new_guardian : t -> int
val guardian_count : t -> int

val guardian_stats : t -> int -> guardian_stats
(** @raise Invalid_argument on an id never returned by {!new_guardian}. *)

val record_registration : t -> gid:int -> unit

val record_resurrection : t -> gid:int -> epoch:int -> unit
(** [epoch] is the heap's gc-epoch {e after} the resurrecting collection,
    so an immediate retrieval reads as latency 0. *)

val record_drop : t -> gid:int -> unit
val record_poll : t -> gid:int -> hit:bool -> epoch:int -> unit

val restore_guardian_count : t -> int -> unit
(** [restore_guardian_count t n] re-creates the guardian-id space of a
    restored heap image: after it, ids [0 .. n-1] resolve in
    {!guardian_stats} (existing ids keep their metrics).  A no-op when
    [n <= guardian_count t]. *)

(** {1 Sinks} *)

module Ring : sig
  (** Bounded ring of per-collection records (most recent [capacity]). *)

  type record = {
    ordinal : int;
    generation : int;
    target : int;
    duration_ns : float;
    phase_ns : float array;  (** indexed by {!phase_index} *)
    phase_work : int array;
    counters : Stats.counters;
    live_words_after : int;
  }

  type t

  val attach : ?capacity:int -> telemetry -> t
  (** Default capacity 64.  The ring fills only while the hub is
      enabled. *)

  val detach : t -> unit
  val records : t -> record list  (** oldest first *)

  val total_recorded : t -> int
end

module Log : sig
  val attach : telemetry -> Format.formatter -> int
  (** One human-readable line per collection on the given formatter: the
      phase timings, then every counter of the event as [name value]
      (export names from the {!Stats} table, then [live_words]).  Returns
      the sink id (detach with {!remove_sink}). *)
end

module Chrome : sig
  (** Chrome [trace_event] JSON writer: a top-level array of [B]/[E]
      event objects with microsecond timestamps, suitable for
      [about://tracing] and Perfetto.  A collection's [E] event carries
      the same [name value] pairs as the {!Log} line as its args.
      Hand-rolled JSON, no dependencies. *)

  type t

  val attach : telemetry -> out_channel -> t
  (** Writes the opening bracket immediately; events stream as they
      happen.  Timestamps are relative to the first event seen. *)

  val close : t -> unit
  (** Removes the sink, writes the closing bracket and flushes.  The
      channel itself is left open for the caller to close. *)
end
