(** Polymorphic binary min-heap; ties are broken by insertion order.

    The simulator's event queue before {!Base_sim.Event_heap} replaced it,
    kept as the test oracle that the flat heap must dequeue identically
    to. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first).  Elements
    that compare equal pop in insertion order. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in arbitrary (heap) order; for debugging. *)
