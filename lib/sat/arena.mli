(** Flat clause storage for the CDCL solver.

    One growable int bank holds every clause as a contiguous
    [header | size | lbd | lits...] block addressed by an integer ref
    (the header's index), so the propagation loop walks contiguous
    unboxed ints instead of chasing per-clause records. Removal is a
    header flag plus wasted-word bookkeeping; {!gc} compacts live blocks
    down and invalidates old refs, which callers must remap (the header
    carries a caller-chosen stable id for that purpose).

    See docs/SOLVER.md for the full layout and the compaction protocol. *)

type t

val create : ?cap:int -> unit -> t
(** Fresh arena. [cap] is the initial bank capacity in words. *)

val alloc : t -> id:int -> learnt:bool -> int array -> int -> int
(** [alloc a ~id ~learnt lits n] appends a block holding the first [n]
    entries of [lits] and returns its ref. [id] is the stable external
    id stored in the header ({!id} reads it back). *)

val bank : t -> int array
(** The backing bank, for direct indexing in hot loops. The reference is
    invalidated by {!alloc} (growth) — re-read it after any allocation. *)

val top : t -> int
(** Words in use (allocation high-water mark). *)

val wasted : t -> int
(** Words buried in removed blocks — the amount a {!gc} would
    reclaim. *)

val id : t -> int -> int

val size : t -> int -> int
(** Number of literals in the block. *)

val learnt : t -> int -> bool

val removed : t -> int -> bool

val remove : t -> int -> unit
(** Flags the block removed and books its words as wasted. The block
    stays readable until the next {!gc}. *)

val used : t -> int -> bool
(** Recently-used mark: set when the clause participates in conflict
    analysis, cleared (and honoured) by database reduction. *)

val set_used : t -> int -> unit

val clear_used : t -> int -> unit

val lbd : t -> int -> int

val set_lbd : t -> int -> int -> unit

val lit : t -> int -> int -> int
(** [lit a r i] is the [i]-th literal of the block at [r]. *)

val lits : t -> int -> int array
(** Fresh copy of the block's literals. *)

val gc : t -> Step_util.Veci.t -> unit
(** [gc a live] compacts the blocks whose refs are listed (ascending) in
    [live] to the bottom of the bank and rewrites [live] in place with
    the new refs; every ref not listed is reclaimed. All old refs are
    invalid afterwards. *)
