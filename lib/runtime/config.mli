(** Static configuration of a simulated heap instance. *)

type t = {
  segment_words : int;
      (** Standard segment size in words.  The paper's Chez Scheme uses
          4 KiB segments; with 8-byte words that is 512 words, our
          default. *)
  max_generation : int;
      (** Generations are numbered [0 .. max_generation] (0 = youngest). *)
  gen0_trigger_words : int;
      (** A collect request fires once this many words have been allocated
          in generation 0 since the last collection (checked at
          safepoints). *)
  generation_friendly_guardians : bool;
      (** The paper's design: protected-list entries are promoted to the
          target generation along with their objects.  [false] keeps every
          entry on generation 0's list — the D1 ablation. *)
  card_words : int;
      (** Card size of the remembered set, in words (power of two, >= 8;
          default 512).  A value >= [segment_words] degenerates to one
          card per segment. *)
  max_heap_words : int;
      (** Hard ceiling on allocated words; {!Heap.Out_of_memory} once it
          would be exceeded (default: effectively unlimited). *)
  image_verify_on_load : bool;
      (** Run the {!Verify} invariant checker over a heap rebuilt from a
          [gbc-image/1] file before handing it back (default [true]).
          A full O(live) sweep; may be disabled for large trusted images
          on a startup-latency budget — the image CRC still guards
          against corruption. *)
}

val default : t

val v :
  ?segment_words:int ->
  ?max_generation:int ->
  ?gen0_trigger_words:int ->
  ?generation_friendly_guardians:bool ->
  ?card_words:int ->
  ?max_heap_words:int ->
  ?image_verify_on_load:bool ->
  unit ->
  t
(** Build a configuration, validating the parameters.
    @raise Invalid_argument on nonsensical values. *)
