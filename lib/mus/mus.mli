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
    refinement" of MUSer). *)

val minimize :
  ?hard:Step_sat.Lit.t list ->
  ?deadline:float ->
  Step_sat.Solver.t ->
  selectors:Step_sat.Lit.t list ->
  Step_sat.Lit.t list
(** [minimize ~hard solver ~selectors] returns a minimal [S ⊆ selectors]
    such that the assumptions [hard @ S] are unsatisfiable. Minimality is
    irredundancy: removing any single element of [S] makes the solver
    satisfiable under the remaining assumptions.

    [deadline] is an absolute {!Step_obs.Clock} time (default: none).
    Each SAT call is armed with the time left
    ({!Step_sat.Solver.arm_deadline}). When the deadline passes,
    [minimize] returns its current working set at once: the elements
    found necessary and those not yet tested, or all of [selectors] if
    the first call did not finish. That set is still unsatisfiable with
    [hard], so it is a valid answer, but it may not be minimal. Either
    way the solver's time budget is cleared on return. The solver's
    conflict budget, if set, also ends the search this way.
    @raise Invalid_argument if [hard @ selectors] is satisfiable. *)

val is_minimal :
  ?hard:Step_sat.Lit.t list ->
  Step_sat.Solver.t ->
  Step_sat.Lit.t list ->
  bool
(** Checks the MUS property of a selector set: unsatisfiable as a whole,
    and satisfiable whenever one element is dropped. Test helper. *)
