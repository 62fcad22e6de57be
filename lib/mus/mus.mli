(** Minimal unsatisfiable subset (MUS) extraction over a satisfiability
    oracle.

    This is the MUSer substitute used for the STEP-MG baseline and for
    seeding the QBF optimum search. Clause groups are named by
    {e selector} literals, and an {e oracle} decides a set of them: it
    answers whether the groups the set activates (with whatever always-on
    constraints it carries) are satisfiable. The usual oracle is a solver
    under assumptions ({!solver_oracle}): to make group [G] deletable,
    every clause [c ∈ G] is added as [c ∨ ¬s_G], and assuming [s_G]
    activates the group. An oracle may also decide each set on a formula
    of its own, as STEP-MG's XOR check does.
    A group MUS is then a minimal selector set the oracle answers
    [Unsat] on.

    The extractor is deletion-based with unsat-core refinement: each
    [Unsat] answer shrinks the candidate set to the returned core, which
    with a solver's core removes many groups per call (the "clause-set
    refinement" of MUSer). An oracle with no core returns the set asked.
    A caller that can show satisfiability more cheaply than the oracle
    (STEP-MG, by simulating the cone) passes a refutation hook, which
    answers deletion tests without an oracle call and lets one call prove
    a whole guessed MUS. *)

type answer =
  | Sat
  | Unsat of Step_sat.Lit.t list
      (** A core: the elements of the set asked that already make it
          unsatisfiable (other literals in it are ignored). The set asked
          is always a valid core. *)
  | Unknown  (** The oracle gave up, e.g. at a deadline. *)

val solver_oracle :
  ?deadline:float -> Step_sat.Solver.t -> Step_sat.Lit.t list -> answer
(** [solver_oracle ~deadline solver sels] solves under the assumptions
    [sels] ({!Step_sat.Solver.solve}, with the absolute
    {!Step_obs.Clock} [deadline], default none) and answers [Unsat] with
    {!Step_sat.Solver.unsat_core}. Constraints every set carries are the
    caller's to prepend. *)

type guess =
  | Confirmed  (** The optimistic pass's set was proved unsatisfiable. *)
  | Fallback  (** The proof failed; exact deletion ran from the core. *)
  | No_guess
      (** No hook, or an [Unknown] answer cut the first call or the
          proof short. *)

type result = {
  mus : Step_sat.Lit.t list;
  sat_calls : int;
      (** Oracle calls made: the first core, the deletion tests the hook
          did not answer, and the optimistic pass's proof. *)
  screened : int;  (** Deletion tests the hook answered. *)
  guess : guess;
}

val minimize :
  ?refute:(Step_sat.Lit.t list -> bool) ->
  (Step_sat.Lit.t list -> answer) ->
  selectors:Step_sat.Lit.t list ->
  result
(** [minimize oracle ~selectors] returns a minimal [S ⊆ selectors] that
    [oracle] answers [Unsat] on. Minimality is irredundancy: the oracle
    answers [Sat] on [S] minus any single element.

    [refute] is a soundness-only hook: [refute sels] may answer [true]
    only if [sels] is satisfiable, shown without the oracle (by
    simulation, say). [false] means "unknown". Every deletion test asks
    it before its oracle call. With a hook, the first core is not walked
    by deletion but by an {e optimistic pass}: it keeps each selector [c]
    whose deletion the hook refutes against [needed @ rest] (the
    selectors kept so far and those not yet walked) and drops every
    other one with no oracle call. One call on [needed] then proves all
    the drops at once.
    - Unsat: [needed] is the answer, and it is irredundant. Each kept [c]
      was refuted against a superset of [needed] minus [c], and a subset
      of a satisfiable set is satisfiable.
    - Sat: some drop was wrong. The [needed] marks are then not trusted,
      since each was tested with a wrongly dropped selector free, and
      exact deletion (still screened by the hook) runs from the same
      core.
    - Unknown: the core itself is returned; it is unsatisfiable.
    If the pass drops nothing, the core is the answer with no further
    call. So under a complete hook (one that refutes every satisfiable
    set) [minimize] makes at most two oracle calls. An unsound hook (one
    that answers [true] on an unsatisfiable set) can make the result
    redundant, never satisfiable. Both walks take the first core's
    selectors in the order of [selectors].

    When the oracle answers [Unknown] (its deadline passed, say),
    [minimize] returns its current working set at once: the elements
    found necessary and those not yet tested, the first core during the
    optimistic pass's proof, or all of [selectors] if the first call did
    not finish. That set is still unsatisfiable, so it is a valid answer,
    but it may not be minimal.
    @raise Invalid_argument if the oracle answers [Sat] on [selectors]. *)

val is_minimal : (Step_sat.Lit.t list -> answer) -> Step_sat.Lit.t list -> bool
(** Checks the MUS property of a selector set: [Unsat] as a whole, and
    [Sat] whenever one element is dropped. Test helper. *)
