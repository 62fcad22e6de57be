(** Binary max-heap over small integer keys with positional index.

    Keys are variable indices; the ordering is supplied as a closure so the
    heap can follow the solver's mutable activity scores. Supports O(log n)
    insert, removal of the maximum, and re-heapification of a single key
    after its score increased. *)

type t

val create : gt:(int -> int -> bool) -> t
(** [create ~gt] makes an empty heap ordered by [gt a b] meaning "key [a]
    ranks strictly above key [b]". *)

val in_heap : t -> int -> bool

val size : t -> int

val is_empty : t -> bool

val insert : t -> int -> unit
(** Inserts a key; no-op if already present. *)

val remove_max : t -> int
(** @raise Invalid_argument if empty. *)

val increased : t -> int -> unit
(** Restore heap order after the key's score grew. No-op if absent. *)

val rebuild : t -> int list -> unit
(** Replace the heap contents with the given keys. *)
