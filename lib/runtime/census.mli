(** Heap census: non-moving reachability analysis (à la Chez Scheme's
    [object-counts]).  Follows the collector's rules — weak cars untraced,
    ephemeron values behind a key-liveness fixpoint — so after a full
    collection the reachable words equal the heap's live words. *)

type counts = {
  mutable pairs : int;
  mutable weak_pairs : int;
  mutable ephemerons : int;
  mutable typed : int array;  (** indexed by {!Obj} type code *)
  mutable objects : int;
  mutable words : int;
}

type t = {
  reachable : counts;
  heap_live_words : int;
}

val run : Heap.t -> t
(** Guardian registrations count as roots, matching what a collection
    preserves. *)

val slack : t -> int
(** Allocated-but-unreachable words: garbage awaiting collection. *)

val pp : Format.formatter -> t -> unit
