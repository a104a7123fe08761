(** Growable arrays (OCaml 5.1 has no [Dynarray]), and a growable int FIFO. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val clear : t -> unit
  val push : t -> int -> unit
  val pop : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val truncate : t -> int -> unit
  val iter : t -> f:(int -> unit) -> unit
  val iteri : t -> f:(int -> int -> unit) -> unit
  val to_list : t -> int list
end

module Poly : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  (** [dummy] fills unused slots so cleared elements do not retain
      host-heap references. *)

  val length : 'a t -> int
  val clear : 'a t -> unit
  val push : 'a t -> 'a -> unit
  val get : 'a t -> int -> 'a
end

(** A FIFO of ints in one array that doubles when full: a push allocates
    nothing until it grows, and a fresh ring allocates nothing at all. *)
module Int_ring : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val push : t -> int -> unit

  val pop : t -> int
  (** The oldest element; the ring must not be empty. *)

  val to_list : t -> int list
  (** Oldest first. *)
end
