(** Minimal unsatisfiable subset (MUS) extraction, selector-based.

    This is the MUSer substitute used for the STEP-MG baseline and for
    seeding the QBF optimum search. Clause groups are represented by
    {e selector} literals: to make group [G] deletable, every clause [c ∈ G]
    is added to the solver as [c ∨ ¬s_G]; asserting the assumption [s_G]
    activates the group. A group MUS is then a minimal set of selectors
    whose activation (together with always-on [hard] assumptions) is
    unsatisfiable.

    The extractor is deletion-based with unsat-core refinement: each UNSAT
    answer shrinks the candidate set to the returned core, which in
    practice removes many groups per solver call (the "clause-set
    refinement" of MUSer). A caller that can show satisfiability more
    cheaply than the solver (STEP-MG, by simulating the cone) passes a
    refutation hook, which answers deletion tests without SAT and lets
    one call prove a whole guessed MUS. *)

type guess =
  | Confirmed  (** The optimistic pass's set was proved unsatisfiable. *)
  | Fallback  (** The proof failed; exact deletion ran from the core. *)
  | No_guess
      (** No hook, or the deadline cut the first call or the proof
          short. *)

type result = {
  mus : Step_sat.Lit.t list;
  sat_calls : int;
      (** Solver calls made: the first core, the deletion tests the hook
          did not answer, and the optimistic pass's proof. *)
  screened : int;  (** Deletion tests the hook answered. *)
  guess : guess;
}

val minimize :
  ?hard:Step_sat.Lit.t list ->
  ?deadline:float ->
  ?refute:(Step_sat.Lit.t list -> bool) ->
  Step_sat.Solver.t ->
  selectors:Step_sat.Lit.t list ->
  result
(** [minimize ~hard solver ~selectors] returns a minimal [S ⊆ selectors]
    such that the assumptions [hard @ S] are unsatisfiable. Minimality is
    irredundancy: removing any single element of [S] makes the solver
    satisfiable under the remaining assumptions.

    [refute] is a soundness-only hook: [refute sels] may answer [true]
    only if [hard @ sels] is satisfiable, shown without the solver (by
    simulation, say). [false] means "unknown". Every deletion test asks
    it before its SAT call. With a hook, the first core is not walked by
    deletion but by an {e optimistic pass}: it keeps each selector [c]
    whose deletion the hook refutes against [needed @ rest] (the
    selectors kept so far and those not yet walked) and drops every
    other one with no SAT call. One call on [hard @ needed] then proves
    all the drops at once.
    - Unsat: [needed] is the answer, and it is irredundant. Each kept [c]
      was refuted against a superset of [needed] minus [c], and a subset
      of a satisfiable assumption set is satisfiable.
    - Sat: some drop was wrong. The [needed] marks are then not trusted,
      since each was tested with a wrongly dropped selector free, and
      exact deletion (still screened by the hook) runs from the same
      core.
    - Deadline: the core itself is returned; it is unsatisfiable.
    If the pass drops nothing, the core is the answer with no further
    call. An unsound hook (one that answers [true] on an unsatisfiable
    set) can make the result redundant, never satisfiable. Both walks
    take the first core's selectors in the order of [selectors].

    [deadline] is an absolute {!Step_obs.Clock} time (default: none),
    passed to each SAT call ({!Step_sat.Solver.solve}). When it passes,
    [minimize] returns its current working set at once: the elements
    found necessary and those not yet tested, the first core during the
    optimistic pass's proof, or all of [selectors] if the first call did
    not finish. That set is still unsatisfiable with [hard], so it is a
    valid answer, but it may not be minimal.
    @raise Invalid_argument if [hard @ selectors] is satisfiable. *)

val is_minimal :
  ?hard:Step_sat.Lit.t list ->
  Step_sat.Solver.t ->
  Step_sat.Lit.t list ->
  bool
(** Checks the MUS property of a selector set: unsatisfiable as a whole,
    and satisfiable whenever one element is dropped. Test helper. *)
