(** Eq hash tables: address-hashed tables and the rehashing problem
    (paper Section 3).

    A copying collector changes addresses, so eq tables must rehash.
    [`Full_rehash] re-buckets everything after any collection; [`Transport]
    re-buckets only the keys a {!Transport_guardian} reports as possibly
    moved — proportional to moved keys, not table size (experiment E4).

    Entries are strong; for the weak, self-cleaning table see
    {!Guarded_table}. *)

open Gbc_runtime

type strategy = [ `Full_rehash | `Transport ]
type t

val create : Heap.t -> strategy:strategy -> size:int -> t
val dispose : t -> unit
val lookup : t -> Word.t -> Word.t option
val mem : t -> Word.t -> bool
val set : t -> Word.t -> Word.t -> unit
val remove : t -> Word.t -> unit
val count : t -> int

val rehash_work : t -> int
(** Entries re-bucketed since creation (the E4 work counter). *)
