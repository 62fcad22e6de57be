(** Tseitin encoding of AIG cones into a SAT solver.

    An encoder binds one {!Step_aig.Aig} manager to one
    {!Step_sat.Solver}. AIG edges are encoded on demand ({!lit_of}): the
    first request for an edge walks its cone, allocates one SAT variable
    per AND node and per input, and adds the three AND-gate clauses per
    node. Encodings are memoized, so repeated or overlapping requests are
    cheap and share variables — which is what makes multi-copy
    constructions (the [f(X) ∧ ¬f(X') ∧ ¬f(X'')] formulas of the paper)
    compact.

    The encoding order is fixed. A cone is encoded in post-order from a
    stack that takes an unencoded node's fanin0 and then its fanin1, so
    fanin1's cone comes first. An AND node's variable comes after those
    of its fanins (an input fanin gets its own when the node is encoded,
    fanin0's first) and is followed by its three clauses. Searches over
    the CNF read that order, so it is kept exactly (test_cnf compares it
    against a reference encoder).

    Input variables can be pre-bound with {!bind_input} so that several
    "copies" of a function use distinct SAT variables for the same AIG
    input (see {!Step_core.Check}). *)

type t

val create : ?solver:Step_sat.Solver.t -> Step_aig.Aig.t -> t
(** A fresh encoder (over a fresh solver unless [solver] is given). *)

val solver : t -> Step_sat.Solver.t

val aig : t -> Step_aig.Aig.t

val fresh : t -> Step_sat.Lit.t
(** A fresh positive SAT literal (helper variable). *)

val lit_of_input : t -> int -> Step_sat.Lit.t
(** SAT literal of AIG input index [i], allocating it if needed. *)

val bind_input : t -> int -> Step_sat.Lit.t -> unit
(** Forces input [i] to be represented by the given SAT literal. Must
    happen before the input is first encoded.
    @raise Invalid_argument otherwise. *)

val lit_of : t -> Step_aig.Aig.lit -> Step_sat.Lit.t
(** SAT literal equisatisfiable with the edge; encodes the cone on first
    use. Constant edges map to a dedicated true/false variable. *)

val add_clause : t -> Step_sat.Lit.t list -> unit
(** Adds a clause through the encoder (so it is reported to the sink). *)

val set_sink : t -> (int -> unit) option -> unit
(** Registers a callback invoked with the id of every clause subsequently
    added by this encoder (including gate clauses). Used by the
    interpolation engine to split clauses into the A/B parts. *)
