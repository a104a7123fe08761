(** The generation-based stop-and-copy collector, with the paper's guardian
    and weak-pair passes.

    A collection of generation [g] collects generations [0..g] into the
    target generation [min (g + 1) max_generation].  Phases: condemn,
    root scan + remembered-set scan, Cheney sweep to a fixpoint, the
    {b guardian pass} (paper Section 4: pend-hold / pend-final /
    kleene-sweep), the {b weak pass} (after the guardian pass, so weak
    pointers to saved objects survive), weak scanners, reclamation.  One
    sweep serves both the Cheney scan and the dirty-card scan; they
    differ only in the offset the object walk starts from.

    Every collection keeps {!Heap.t.promoted_words}, the input of the
    volume schedule ({!Runtime.collect_auto}): it zeroes the entries of
    generations [0..gen] and adds the words it copied to the target's
    when the target is older than [gen]. *)

type outcome = {
  generation : int;  (** oldest generation collected *)
  target : int;
  duration_ns : float;
}

val collect : ?weak_pass_first:bool -> Heap.t -> gen:int -> outcome
(** Run a collection of generations [0..gen].

    [weak_pass_first] (default false) swaps the guardian and weak passes;
    it exists {e only} so tests can demonstrate that the paper's order is
    essential (a weak pointer to a guardian-saved object would be broken).

    An exception out of a collection (a raising root or weak scanner,
    say) is re-raised after poisoning the heap: from then on this
    function raises {!Heap.Poisoned}, naming that exception.

    @raise Invalid_argument if already collecting or [gen] is out of
    range. *)
