(** Static configuration of a simulated heap instance. *)

type t = {
  segment_words : int;
      (** Standard segment size in words.  The paper's Chez Scheme uses 4 KiB
          segments; with 8-byte words that is 512 words, our default. *)
  max_generation : int;
      (** Generations are numbered [0 .. max_generation] (0 = youngest). *)
  gen0_trigger_words : int;
      (** A collect request fires once this many words have been allocated
          in generation 0 since the last collection (checked at
          safepoints). *)
  generation_friendly_guardians : bool;
      (** The paper's design: protected-list entries are promoted to the
          target generation along with their objects, so collections only
          visit entries of the generations actually being collected.
          [false] keeps every entry on generation 0's list — the ablation
          measured by bench E1b (DESIGN.md D1). *)
  card_words : int;
      (** Card size of the remembered set, in words (power of two, >= 8).
          The write barrier records old-to-young stores per card, and the
          dirty scan visits only dirty cards of remembered segments.  A
          value >= [segment_words] degenerates to one card per segment,
          i.e. the segment-granular remembered set. *)
  max_heap_words : int;
      (** Hard ceiling on allocated words across all segments;
          {!Heap.Out_of_memory} is raised once it would be exceeded
          (default: effectively unlimited). *)
  image_verify_on_load : bool;
      (** Run the {!Verify} invariant checker over a heap rebuilt from a
          [gbc-image/1] file before handing it back (default [true]).
          The check is a full O(live) sweep; embedders restoring large
          trusted images on a startup-latency budget may turn it off —
          the CRC still guards against corruption either way. *)
}

let default =
  {
    segment_words = 512;
    max_generation = 4;
    gen0_trigger_words = 64 * 1024;
    generation_friendly_guardians = true;
    card_words = 512;
    max_heap_words = max_int;
    image_verify_on_load = true;
  }

let v ?(segment_words = default.segment_words)
    ?(max_generation = default.max_generation)
    ?(gen0_trigger_words = default.gen0_trigger_words)
    ?(generation_friendly_guardians = true) ?(card_words = default.card_words)
    ?(max_heap_words = max_int) ?(image_verify_on_load = true) () =
  if segment_words < 8 then invalid_arg "Config.v: segment_words too small";
  if max_generation < 0 then invalid_arg "Config.v: negative max_generation";
  if max_generation > 254 then
    (* Card bytes store generations; 255 is reserved for "clean". *)
    invalid_arg "Config.v: max_generation must be <= 254";
  if card_words < 8 then invalid_arg "Config.v: card_words too small";
  if card_words land (card_words - 1) <> 0 then
    invalid_arg "Config.v: card_words must be a power of two";
  if max_heap_words < segment_words then invalid_arg "Config.v: max_heap_words too small";
  {
    segment_words;
    max_generation;
    gen0_trigger_words;
    generation_friendly_guardians;
    card_words;
    max_heap_words;
    image_verify_on_load;
  }
