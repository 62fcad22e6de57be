(** The multi-copy decision behind all decomposition checks.

    For OR bi-decomposition the paper's Proposition 1 asks whether

    [f(X) ∧ ¬f(X') ∧ ¬f(X'')]

    is unsatisfiable, where copy [X'] may differ from [X] only on [XA] and
    copy [X''] only on [XB]. Each input [i] has two {e selectors}: [αᵢ]
    states "[i] is not in [XA]" (copy 1 is pinned to [X] there), [βᵢ]
    states "[i] is not in [XB]" (copy 2 is pinned); both put [i] in [XC].
    A partition is a selector set, and so is every state of STEP-MG's
    seed scan and group MUS. {!decide} is the one check of a selector
    set. Per support position it means a {e side}:
    - 0: only [αᵢ] dropped, [i] free on copy 1 ([XA]);
    - 1: only [βᵢ] dropped, [i] free on copy 2 ([XB]);
    - 2: both kept, [i] pinned ([XC]);
    - 3: both dropped, [i] free on both copies. For XOR all four points
      then take independent values there. No partition has side 3; it is
      a state of the group MUS ({!Mg.mus_hook}).

    {b OR and AND} are decided on a {e selector scaffold}, encoded once
    on the problem's AIG: the copies with the asserted matrix, and per
    input two selector literals, each carrying its equality. A selector
    set is an assumption set, so checking another partition, extracting
    MUSes or validating QBF candidates all reuse the same learnt clauses.
    - OR: [f ∧ ¬f' ∧ ¬f'']; [αᵢ ⇒ (xᵢ ≡ x'ᵢ)], [βᵢ ⇒ (xᵢ ≡ x''ᵢ)].
    - AND: dual on [¬f]: [¬f ∧ f' ∧ f'']; same selector equalities.

    {b XOR} asks for the four-point condition
    [f(X) ⊕ f(X') ⊕ f(X'') ⊕ f(X''') = 0], where the fourth point
    combines the primed values: [x'''ᵢ = x'ᵢ] on [XA], [x''ᵢ] on [XB],
    [xᵢ] on [XC]. It holds exactly when every four-point difference
    across [XA × XB] is zero (Bogdanov and Wang, "Learning and Testing
    Variable Partitions"). XOR has no selector scaffold. Its selector
    form would need a third copy and two equalities per selector, and
    its refutations are slow: four cone copies tied on all but a few
    inputs compute equal values at most internal nodes, and CDCL learns
    each such equality one conflict at a time. XOR is decided by
    {e substitution} instead. Each check builds the four points in a
    fresh AIG manager, importing f's cone four times with a pinned input
    mapped to one shared input of all four. The structural hash then
    merges every node outside the fanout of the free inputs, and the XOR
    of the four copies, solved on a fresh solver, is a small, easy
    instance. A [Sat] answer refutes the
    selector set; the answer's core is the set asked, as a miter has no
    selector core. One entry remembers the side array of the last
    [Unsat], which answers a repeat (the group MUS's first call asks
    what the seed scan has just refuted) with no solve.

    [Unsat] under a partition's selectors means the function is
    bi-decomposable with that gate and partition.

    A certificate needs an assumption-free CNF, so {!certificate} builds
    the check of one partition afresh on a proof-logging solver: the
    OR/AND scaffold with the partition's selectors as unit clauses, and
    for XOR the same four-point miter, with the parity of the four
    points asserted as clauses. An XOR [t] has selectors only as names.

    A [t] also carries the one simulation {!Screen} of its problem and
    gate, built on first use. STEP-MG and the QBF search that it
    bootstraps share a [t], so they read one pair graph, and for OR and
    AND the search reuses MG's learnt clauses. *)

type t

val create : Problem.t -> Gate.t -> t
(** The check of [p] under the gate: the OR/AND scaffold, encoded on
    [p]'s AIG, or XOR's cone for the miter. *)

val certificate : Problem.t -> Gate.t -> Partition.t -> Step_sat.Solver.t
(** [certificate p g part] is a fresh proof-logging solver that holds
    the check of [part] as an assumption-free CNF, so its [Unsat] answer
    exports as an LRAT refutation ({!Certify}) and its [Sat] model is a
    counterexample:
    - OR/AND: a new scaffold, built as {!create} builds it, with
      {!assumptions} added as unit clauses;
    - XOR: the four-point miter that {!decide} solves on the partition's
      sides, pinned inputs substituted, with the four point literals'
      odd parity as eight clauses of four literals. When the structural
      hash folds the miter to constant false, the CNF is these clauses
      over the merged points, still unsatisfiable and never empty.
    Proof logging disables clause minimization and keeps deleted clause
    literals, so it is never on for the search's own checks.
    @raise Invalid_argument as {!assumptions} does. *)

val resolve : caller:string -> t option -> Problem.t -> Gate.t -> t
(** [resolve ~caller copies p g] is the given [t], or a fresh one for
    [p] and [g] when there is none.
    @raise Invalid_argument, with a message that starts with [caller],
    if the given [t] was built for another problem or gate (it names
    both gates). *)

val screen : t -> Screen.t
(** The screen, built on first use: a [t] that never asks for it (a
    certificate's, LJH's) compiles no simulator. *)

val alpha_selector : t -> int -> Step_sat.Lit.t
(** [alpha_selector c i]: asking it keeps [i] out of [XA].
    @raise Not_found if [i] is not in the support. *)

val beta_selector : t -> int -> Step_sat.Lit.t
(** Asking it keeps [i] out of [XB]. *)

val fill_sides : t -> Step_sat.Lit.t list -> int array -> unit
(** [fill_sides c sels side] writes into [side] (one cell per support
    position, in the order of [Problem.support]) the side of each
    position under the selector set [sels], as listed above.
    @raise Not_found if [sels] has a literal that is no selector of [c]. *)

val assumptions : t -> Partition.t -> Step_sat.Lit.t list
(** The selector set of a partition: [αᵢ] for [i ∉ XA] and [βᵢ] for
    [i ∉ XB].
    @raise Invalid_argument if the partition does not cover the support. *)

val decide : ?deadline:float -> t -> Step_sat.Lit.t list -> Step_mus.Mus.answer
(** [decide c sels] is the check of a selector set, in the oracle form
    of {!Step_mus.Mus.minimize}. [Unsat] means the gate condition holds
    under [sels]; [Sat] gives a counterexample ({!model_points});
    [Unknown] means the absolute {!Step_obs.Clock} [deadline] (default
    none) passed. OR and AND solve the scaffold under the assumptions
    [sels], in their order, with {!Step_sat.Solver.unsat_core} as the
    core. XOR solves the four-point miter of the sides of [sels]
    ({!fill_sides}), with [sels] as the core.
    @raise Not_found as {!fill_sides} does. *)

val check : ?deadline:float -> t -> Partition.t -> Step_sat.Solver.result
(** [decide] on the partition's {!assumptions}: [Unsat] = decomposable;
    [Sat] = not decomposable (a counterexample is then available via
    {!model_points}); [Unknown] = the deadline passed. *)

val model_points : t -> bool array * bool array * bool array
(** After a [Sat] answer: the model's points [(x, x', x'')] over the
    support positions (the order of [Problem.support]). On sides 0–2
    [x'] differs from [x] only on XA and [x''] only on XB, and for XOR
    the fourth point is [x ⊕ x' ⊕ x''], so the three points are the whole
    counterexample (see {!Screen.load}). After a set with side 3 the XOR
    fourth point is not among them. *)
