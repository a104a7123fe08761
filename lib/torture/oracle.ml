(** See oracle.mli.  Everything here iterates in node-id or list order —
    never over a hash table — so a run is deterministic for a fixed trace. *)

open Gbc_runtime

type value = Imm of Word.t | Ref of int
type kind = Pair | Weakpair | Ephemeron | Vector | Box | Tconc | Guardian

type node = {
  id : int;
  kind : kind;
  fields : value array;
  mutable queue : value list;
  mutable gen : int;
  mutable alive : bool;
}

type entry = { e_obj : value; e_rep : value; e_guardian : int }

type t = {
  mutable nodes : node array;
  mutable nnodes : int;
  protected : entry list array;  (** per generation, registration order *)
  gff : bool;
}

let create ~max_generation ~generation_friendly_guardians =
  {
    nodes = Array.make 64 { id = -1; kind = Pair; fields = [||]; queue = []; gen = 0; alive = false };
    nnodes = 0;
    protected = Array.make (max_generation + 1) [];
    gff = generation_friendly_guardians;
  }

let node t id =
  if id < 0 || id >= t.nnodes then invalid_arg "Oracle.node: bad id";
  t.nodes.(id)

let alloc t kind fields =
  if t.nnodes = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.nnodes) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.nnodes;
    t.nodes <- bigger
  end;
  let id = t.nnodes in
  t.nodes.(id) <- { id; kind; fields; queue = []; gen = 0; alive = true };
  t.nnodes <- id + 1;
  id

let set_field t id i v = (node t id).fields.(i) <- v
let enqueue t id v = (node t id).queue <- (node t id).queue @ [ v ]

let dequeue t id =
  let nd = node t id in
  match nd.queue with
  | [] -> None
  | v :: rest ->
      nd.queue <- rest;
      Some v

let register t ~guardian ~obj ~rep =
  t.protected.(0) <- t.protected.(0) @ [ { e_obj = obj; e_rep = rep; e_guardian = guardian } ]

let pending t id = (node t id).queue

let remove_pending t ~guardian ~f =
  let nd = node t guardian in
  let rec go acc = function
    | [] -> false
    | v :: rest when f v ->
        nd.queue <- List.rev_append acc rest;
        true
    | v :: rest -> go (v :: acc) rest
  in
  go [] nd.queue

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)

let collect t ~roots ~gen:g ~target =
  let n = t.nnodes in
  let reached = Array.make n false in
  let stack = ref [] in
  let mark id =
    let nd = t.nodes.(id) in
    assert nd.alive;
    if not reached.(id) then begin
      reached.(id) <- true;
      stack := id :: !stack
    end
  in
  let mark_value = function Imm _ -> () | Ref id -> mark id in
  (* A node "participates" when it survives this collection: already
     traced, or too old to be condemned. *)
  let participates id = reached.(id) || t.nodes.(id).gen > g in
  let value_live = function
    | Imm _ -> true
    | Ref id -> t.nodes.(id).alive && participates id
  in
  let trace id =
    let nd = t.nodes.(id) in
    match nd.kind with
    | Pair | Vector | Box -> Array.iter mark_value nd.fields
    | Weakpair -> mark_value nd.fields.(1)
    | Ephemeron -> ()  (* conditional; the fixpoint below decides *)
    | Tconc | Guardian -> List.iter mark_value nd.queue
  in
  let drain () =
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | id :: rest ->
          stack := rest;
          trace id
    done
  in
  (* [close] = the collector's kleene-sweep: transitive strong tracing
     interleaved with the ephemeron fixpoint (a value traced because its
     key proved reachable can reveal further reachable keys). *)
  let close () =
    drain ();
    let progress = ref true in
    while !progress do
      progress := false;
      for id = 0 to n - 1 do
        let nd = t.nodes.(id) in
        if nd.kind = Ephemeron && nd.alive && participates id && value_live nd.fields.(0)
        then
          match nd.fields.(1) with
          | Ref v when t.nodes.(v).alive && not reached.(v) && t.nodes.(v).gen <= g ->
              mark v;
              progress := true
          | _ -> ()
      done;
      if !progress then drain ()
    done
  in
  (* Roots: the driver's rooted nodes, plus every live node of an older
     generation — uncollected generations are scanned only through dirty
     cards, whose invariant (a clean card holds no young pointers) makes
     "all old nodes are roots" the exact model, floating garbage
     included. *)
  List.iter mark roots;
  for id = 0 to n - 1 do
    let nd = t.nodes.(id) in
    if nd.alive && nd.gen > g then mark id
  done;
  close ();
  (* Guardian pass, first block: one partition, in protected-list order,
     over the collected generations.  A held entry's rep is kept alive
     *shallowly* right away (the collector copies it without sweeping), so
     it influences the test for later entries; its fields join the trace
     only at the close() after the loop. *)
  let pend_hold = ref [] and pend_final = ref [] in
  for i = 0 to g do
    List.iter
      (fun e ->
        if value_live e.e_obj then begin
          (match e.e_rep with
          | Ref r when t.nodes.(r).gen <= g -> if not reached.(r) then begin
              reached.(r) <- true;
              stack := r :: !stack
            end
          | _ -> ());
          pend_hold := e :: !pend_hold
        end
        else pend_final := e :: !pend_final)
      t.protected.(i);
    t.protected.(i) <- []
  done;
  close ();
  (* Second block: resurrection as a least fixpoint.  An inaccessible
     entry is saved once its guardian is (or becomes) reachable; saving a
     rep can make further guardians reachable.  The collector computes
     this with a worklist keyed by tconc addresses; set-wise the result is
     the same, and guardian queues are compared as multisets. *)
  let remaining = ref (List.rev !pend_final) in
  let progress = ref true in
  while !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun e ->
        let gn = t.nodes.(e.e_guardian) in
        assert gn.alive;
        if participates e.e_guardian then begin
          gn.queue <- gn.queue @ [ e.e_rep ];
          mark_value e.e_rep;
          progress := true
        end
        else still := e :: !still)
      !remaining;
    remaining := List.rev !still;
    close ()
  done;
  (* Entries still unresolved lost their guardian too: dropped, cancelling
     finalization, as the paper requires. *)
  (* Third block: surviving held entries move to the target generation's
     protected list (or stay on generation 0 under the D1 ablation) — in
     the collector's order: pend-hold is built by prepending, then walked. *)
  let entry_gen = if t.gff then target else 0 in
  let promoted =
    List.filter (fun e -> participates e.e_guardian) !pend_hold
  in
  t.protected.(entry_gen) <- t.protected.(entry_gen) @ promoted;
  (* Weak pass (after the guardian pass, so guardian-saved referents
     survive): break the car of every surviving weak pair whose referent
     was condemned and never traced. *)
  for id = 0 to n - 1 do
    let nd = t.nodes.(id) in
    if nd.kind = Weakpair && nd.alive && participates id then
      match nd.fields.(0) with
      | Ref x when t.nodes.(x).gen <= g && not reached.(x) -> nd.fields.(0) <- Imm Word.false_
      | _ -> ()
  done;
  (* Ephemerons whose key never proved reachable: both fields break. *)
  for id = 0 to n - 1 do
    let nd = t.nodes.(id) in
    if nd.kind = Ephemeron && nd.alive && participates id then
      match nd.fields.(0) with
      | Ref k when t.nodes.(k).gen <= g && not reached.(k) ->
          nd.fields.(0) <- Imm Word.false_;
          nd.fields.(1) <- Imm Word.false_
      | _ -> ()
  done;
  (* Reclaim and promote. *)
  for id = 0 to n - 1 do
    let nd = t.nodes.(id) in
    if nd.alive && nd.gen <= g then
      if reached.(id) then nd.gen <- target else nd.alive <- false
  done
