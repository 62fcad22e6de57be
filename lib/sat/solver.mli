(** Conflict-driven clause-learning (CDCL) SAT solver.

    MiniSat-class engine: two-literal watching, first-UIP clause learning,
    VSIDS branching with phase saving, Luby restarts, learned-clause
    database reduction, incremental solving under assumptions with
    final-conflict core extraction, and optional resolution-proof logging
    (used by {!Step_interp} to compute Craig interpolants).

    Variables are 0-based integers created by {!new_var}; literals follow
    the {!Lit} encoding. {!add_clause} only adds at decision level 0
    (i.e. between [solve] calls); a [solve] hook adds inside the search. There is one entry point, {!solve}; a
    time limit is its [deadline] argument, so the solver keeps no budget
    from one call to the next. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] is only returned by {!solve} when its deadline passes. *)

exception Sanitizer_violation of Step_lint.Diag.t list
(** Raised mid-search by the runtime sanitizer when a solver invariant is
    broken (see {!set_sanitize}). *)

val create : ?proof:bool -> unit -> t
(** Fresh solver. With [~proof:true] every learned clause records its
    resolution chain so {!proof_of_unsat} can reconstruct a refutation;
    conflict-clause minimization is disabled in that mode. Sanitizing
    defaults to on when the [STEP_SANITIZE] environment variable is set to
    [1]/[true]/[yes]/[on]. *)

val set_sanitize : t -> bool -> unit
(** Toggles the runtime invariant sanitizer. When on, the solver audits
    trail/assignment consistency at every decision boundary and
    watch-list/clause-store integrity every 64 decisions and at
    [solve] entry/exit, raising {!Sanitizer_violation} on a broken
    invariant. When off, all checks are skipped. *)

val sanitize_enabled : t -> bool

val audit : t -> Step_lint.Diag.t list
(** Runs all invariant audits immediately and returns the violations
    found (codes SAN001 watch-list, SAN002 trail/assignment, SAN003
    clause references) without raising. Empty on a healthy solver. *)

val proof_logging : t -> bool

val new_var : t -> int
(** Allocates and returns the next variable index. *)

val ensure_var : t -> int -> unit
(** [ensure_var s v] allocates variables so that [v] is valid. *)

val n_vars : t -> int

val n_clauses : t -> int
(** Number of problem (non-learned) clauses added so far. *)

val okay : t -> bool
(** [false] once the clause set is known unsatisfiable at level 0. *)

val add_clause : t -> Lit.t list -> int
(** Adds a clause; returns its identifier, or [-1] when the clause was
    discarded (tautology, or already satisfied at level 0 in non-proof
    mode). Adding an empty (or all-false-at-level-0) clause makes the
    solver permanently unsatisfiable; in proof mode an empty clause is
    kept and recorded as the refutation. Variables are allocated on
    demand. *)

val add_clause_array : t -> Lit.t array -> int -> int
(** [add_clause_array s buf n] is {!add_clause} on the clause
    [buf.(0 .. n-1)], with the same result and the same stored clause.
    It normalises those entries in place (their contents afterwards are
    unspecified) and keeps nothing of [buf], whose literals are copied
    into the clause store: a caller can fill one scratch buffer for every
    clause it adds. Entries from [n] on are not read.
    @raise Invalid_argument unless [0 <= n <= Array.length buf]. *)

type verdict =
  | Accept  (** The model stands: [solve] answers [Sat]. *)
  | Stop  (** Give up: [solve] answers [Unknown]. *)
  | Refine of Lit.t list
      (** Add this clause and search on. It must be false under the
          model. *)
(** What an [on_model] hook of {!solve} makes of a model. *)

val solve :
  ?assumptions:Lit.t list ->
  ?deadline:float ->
  ?on_model:(unit -> verdict) ->
  t ->
  result
(** [solve s] decides the clause set under the given assumptions.
    [deadline] is an absolute {!Step_obs.Clock} time (default [infinity]).
    The search checks it at restart boundaries and every 1024 conflicts,
    and answers [Unknown] once it has passed. A deadline that has passed
    before the call answers [Unknown] at once, with no search, no
    [solver.solve] fault hit and no [sat.*] counter change. The deadline
    belongs to this call only: no budget survives it.

    [on_model] is called each time the search assigns every variable,
    with the model already readable through {!model_value}; without it
    the first model answers [Sat]. A [Refine] clause joins the clause set
    for good, as a problem clause with its own id (in proof mode too),
    and the search goes on from where it stands: with one literal on the
    highest level of the clause it backjumps and asserts that literal,
    with two or more it analyses the clause as a conflict, and a clause
    false at level 0 makes the set unsatisfiable ({!okay} turns
    [false]). The hook must not call back into [s].
    @raise Invalid_argument if a [Refine] clause has a literal that is
    not false under the model; the solver is then back at level 0 with
    nothing added. Any exception the hook raises leaves it the same
    way. *)

val model_value : t -> Lit.t -> bool
(** Value of a literal in the last model the search found: that of the
    last [Sat] answer, or inside an [on_model] hook the model it is
    judging. Literals over variables created after the last solve
    evaluate as unassigned-false. *)

val var_value : t -> int -> bool
(** Model value of a variable (last [Sat] answer). *)

val unsat_core : t -> Lit.t list
(** After an [Unsat] answer under assumptions: a subset of the assumptions
    sufficient for unsatisfiability. Empty if the clause set is
    unsatisfiable regardless of assumptions. *)

module Proof : sig
  type step = { premises : int array; pivots : int array }
  (** A (trivial) resolution chain: start from clause [premises.(0)] and,
      for each [i], resolve the running resolvent with clause
      [premises.(i + 1)] on variable [pivots.(i)]. *)
end

val proof_of_unsat : t -> (int * Proof.step) array * Proof.step
(** After [Unsat] without assumptions in proof mode: all learned-clause
    chains in derivation order (paired with the learned clause id), and the
    final chain deriving the empty clause.
    @raise Failure if proof logging is off or no refutation was recorded. *)

val has_refutation : t -> bool
(** [true] iff the solver is in proof mode and has recorded an
    (assumption-free) refutation, i.e. {!proof_of_unsat} will succeed. *)

val proof_deletions : t -> (int * int) list
(** Clause deletions performed by the learned-clause database reduction
    while in proof mode, in deletion order. Each pair is [(clause id,
    chain position)]: the deletion happened after the first [position]
    learned-clause chains were recorded, so a replayable trace must emit
    the deletion line at exactly that point. Locked clauses (current
    propagation reasons) are never deleted, hence no later chain ever
    references a deleted id. *)

val reduce_learnts : t -> unit
(** Forces one learned-clause database reduction pass immediately (same
    policy as the in-search heuristic, keyed on stored LBD). Intended for
    tests and fuzzers exercising deletion-aware proof export.
    @raise Invalid_argument unless at decision level 0. *)

val compact : t -> unit
(** Forces an arena garbage collection: live clause blocks are compacted
    to the bottom of the bank and every internal reference is reseated.
    Clause ids are stable across compaction. Runs automatically at
    restart boundaries once enough words are buried; this hook exists for
    tests and fuzzers.
    @raise Invalid_argument unless at decision level 0. *)

val n_live_clauses : t -> int
(** Number of clause records (problem + learned) still alive, i.e. not
    deleted by learnt-database reduction. *)

val n_clause_records : t -> int
(** Total number of clause records allocated (problem + learned, live or
    removed). Valid clause ids are [0 .. n_clause_records - 1]. *)

val clause_lits : t -> int -> Lit.t array
(** Literals of the clause with the given identifier (problem or learned).
    Valid for ids returned by {!add_clause} and ids appearing in proofs. *)

val is_learnt_clause : t -> int -> bool
