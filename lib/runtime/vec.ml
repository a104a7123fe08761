(** Growable arrays.

    The runtime needs dynamically sized sequences in a few hot places
    (protected lists, root tables, collector work lists).  OCaml 5.1 has no
    [Dynarray], so this small module provides one, both int-specialized
    ([Vec.Int]) and polymorphic ([Vec.Poly]). *)

module Int = struct
  type t = {
    mutable data : int array;
    mutable len : int;
  }

  let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

  let length t = t.len

  let is_empty t = t.len = 0

  let clear t = t.len <- 0

  (* Out of line, so that [push] is small enough to be inlined. *)
  let grow t =
    let data = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data

  let push t x =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let pop t =
    assert (t.len > 0);
    t.len <- t.len - 1;
    t.data.(t.len)

  let[@inline] get t i =
    assert (i >= 0 && i < t.len);
    t.data.(i)

  let set t i x =
    assert (i >= 0 && i < t.len);
    t.data.(i) <- x

  let truncate t n =
    assert (n >= 0 && n <= t.len);
    t.len <- n

  let iter t ~f =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let iteri t ~f =
    for i = 0 to t.len - 1 do
      f i t.data.(i)
    done

  let to_list t =
    let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
    loop (t.len - 1) []
end

module Poly = struct
  type 'a t = {
    mutable data : 'a array;
    mutable len : int;
    dummy : 'a;
  }

  let create ?(capacity = 16) ~dummy () =
    { data = Array.make (max capacity 1) dummy; len = 0; dummy }

  let length t = t.len

  let clear t =
    (* Release references so the host GC can reclaim elements. *)
    Array.fill t.data 0 t.len t.dummy;
    t.len <- 0

  let ensure t n =
    if n > Array.length t.data then begin
      let cap = ref (Array.length t.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap t.dummy in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let push t x =
    ensure t (t.len + 1);
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let[@inline] get t i =
    assert (i >= 0 && i < t.len);
    t.data.(i)
end

module Int_ring = struct
  (* [len] ints from [head], wrapping; the capacity is 0 or a power of
     two, so an index wraps with a mask. *)
  type t = {
    mutable data : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { data = [||]; head = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0
  let nth t i = t.data.((t.head + i) land (Array.length t.data - 1))

  (* Out of line, so that [push] is small enough to be inlined. *)
  let grow t =
    t.data <- Array.init (max 8 (2 * t.len)) (fun i -> if i < t.len then nth t i else 0);
    t.head <- 0

  let push t x =
    if t.len = Array.length t.data then grow t;
    t.len <- t.len + 1;
    t.data.((t.head + t.len - 1) land (Array.length t.data - 1)) <- x

  let pop t =
    assert (t.len > 0);
    let x = t.data.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.data - 1);
    t.len <- t.len - 1;
    x

  let to_list t = List.init t.len (nth t)
end
