(** Epoch-stamped scratch map over small integer keys.

    The solver's conflict analysis and LBD computation need per-variable
    / per-level scratch marks that are set a handful of times and then
    cleared wholesale. A [Bytes] map needs an explicit to-clear list to
    stay O(marks); an epoch map makes {!reset} O(1) by bumping a
    generation counter instead: a slot counts as set only when its stamp
    matches the current epoch. *)

type t

val create : ?cap:int -> unit -> t
(** Fresh map; all keys unset. [cap] is the initial capacity (default 16);
    the map grows on demand in {!set}. *)

val ensure : t -> int -> unit
(** [ensure t n] pre-grows the map so keys [0 .. n-1] are in capacity
    (avoids growth checks in hot loops). *)

val reset : t -> unit
(** Unsets every key. O(1). *)

val mem : t -> int -> bool
(** Whether the key has been {!set} since the last {!reset}. *)

val set : t -> int -> int -> unit
(** [set t i v] binds key [i] to [v] in the current epoch. *)

val get : t -> int -> int
(** [get t i] is the bound value, or [0] when the key is unset. *)

val unset : t -> int -> unit
(** Unsets a single key. *)
