(** The paper's contribution: QBF models for optimum bi-decomposition
    (STEP-QD, STEP-QB, STEP-QDB).

    The 2QBF formulation (model (4)) existentially quantifies the control
    variables [αᵢ, βᵢ] — which spell out the partition:
    [(1,0) → XA, (0,1) → XB, (0,0) → XC] — and universally quantifies the
    function copies. Following Section IV-A.5, we solve the negated model
    (9) with a CEGAR loop in the style of AReQS:

    - the {e abstraction} is a SAT solver over [α, β] carrying the
      non-triviality constraints [fN] (AtLeast1(α) ∧ AtLeast1(β)), the
      symmetry-breaking constraint [|XA| ≥ |XB|], and the target
      constraints [fT] — totalizer counters whose bound [k] is selected
      per query by assumption literals, so the optimum search re-solves
      the same CNF;
    - a candidate is first screened by simulation ({!Screen}); only
      when no violating point tuple turns up is it {e verified} by one
      {!Copies.check}: an incremental SAT call on the shared OR/AND
      scaffold, or the XOR four-point miter; it is accepted only on
      [Unsat];
    - a counterexample, simulated or from SAT, is shrunk and then yields
      the single refinement clause [∨_{i ∈ D1} ¬αᵢ ∨ ∨_{i ∈ D2} ¬βᵢ],
      where [D1]/[D2] are the inputs on which the copies [x']/[x'']
      differ from [x]. Refinements are valid for every bound [k], so
      they accumulate across the whole optimum search;
    - a bound query is one abstraction solve: screening, verification
      and refinement run in its model hook ([Solver.solve ~on_model]),
      and each refinement clause joins the running search.

    {b XOR disjointness} is not searched on the abstraction. For XOR,
    [f = fA(XA, XC) ⊕ fB(XB, XC)] holds exactly when no edge of f's pair
    graph (the pairs [(i, j)] with [D_i D_j f ≢ 0], see {!Screen.walk})
    joins XA to XB, so the optimum XC is a minimum vertex separator of
    that graph. The search keeps the edges it has witnessed, starting
    from the screen's sampled pairs ({!Screen.conflict}), and loops:
    - a bound query takes a minimum separator of the known graph with
      both sides non-empty and [|XC|] below the best so far
      ({!Separator.minimum}); the known edges are true ones, so none
      means the best so far is optimal, and with no best at all (no
      bootstrap) it means "indecomposable";
    - one {!Copies.check}, the four-point miter, decides the candidate:
      [Unsat] proves it optimal;
    - on [Sat] the counterexample walks down to an edge across the
      candidate ({!Screen.walk}), every edge visible at the walk's point
      joins the graph ({!Screen.harvest}), and the next query follows.
      Each counterexample is one refinement.
    No abstraction solver, totalizer or clause is built on this path.

    The target integer [k] instantiates the paper's constraints, one
    target each; the abstraction is built whole for its target, with
    the counters that target reads and a bound that maps [k] to
    assumption literals. *)

type target =
  | Disjointness
      (** STEP-QD, constraint (5): [|XC| ≤ k], on a totalizer over the
          shared inputs (on XOR, the separator search above). *)
  | Balancedness
      (** STEP-QB, constraint (6): [0 ≤ |XA| − |XB| ≤ k], on the XA and
          XB totalizers, with one activation literal per bound [k]. *)
  | Combined
      (** STEP-QDB, constraint (8): [|XC| + |XA| − |XB| ≤ k], through the
          identity [|XC| + |XA| − |XB| = n − 2·|XB|] as a lower bound on
          the XB totalizer. This is Definition 4's cost with unit
          weights. *)

type strategy =
  | Mi  (** Monotonically increasing [k]. *)
  | Md  (** Monotonically decreasing [k]. *)
  | Bin  (** Dichotomic (binary) search. *)
  | Composite
      (** The paper's tuned sequence MD → Bin → MI for disjointness. *)

type outcome = {
  partition : Partition.t option;
      (** Best partition found ([None] = not decomposable, or nothing
          found within budget). *)
  optimal : bool;
      (** The partition provably attains the optimum [k] for the target. *)
  best_k : int option; (** Target value of the best partition. *)
  refinements : int;
      (** CEGAR counterexamples processed; for XOR disjointness, the
          counterexamples walked down to a new edge. *)
  qbf_queries : int;
      (** Bounded queries: one abstraction solve each, or for XOR
          disjointness one separator and at most one check. *)
  cpu : float;
}

val target_k : target -> Partition.t -> int
(** The integer the target bounds, for a canonicalized partition. *)

val optimize :
  ?copies:Copies.t ->
  ?symmetry_breaking:bool ->
  ?strategy:strategy ->
  ?bootstrap:Partition.t ->
  ?max_refinements:int ->
  ?time_budget:float ->
  Problem.t ->
  Gate.t ->
  target ->
  outcome
(** Runs the optimum search. [bootstrap] (typically the STEP-MG partition)
    provides the initial upper bound; without it the search first decides
    plain decomposability at the loosest bound. [symmetry_breaking]
    defaults to [true]. [strategy] defaults to what the paper found
    best: [Composite], or [Mi] for [Balancedness]. With a [bootstrap],
    the result is never worse than it (mirroring the paper's setup).

    Just before its first bound query, the search seeds the abstraction
    with both clauses of every pair of the pair graph ({!Screen.pairs} on
    {!Copies.screen}); on a scaffold shared with {!Mg.find} that graph
    is the one MG's seed scan read. These clauses are not refinements:
    [max_refinements] and [refinements] do not count them (the
    [qbf.pairs] counter does). A search that issues no query, because
    the bootstrap already meets the floor, adds none. [copies] must be
    built for the same problem and gate ({!Copies.resolve}).
    [time_budget] sets one deadline that every abstraction and
    verification call of the search runs under.

    On XOR with [Disjointness] the search is the separator loop above:
    [symmetry_breaking] and [strategy] do not apply to it, the sampled
    pairs start its graph instead of seeding clauses (one [qbf.pairs]
    per pair), and [max_refinements] caps the counterexamples it walks.
    Every other gate and target runs on the abstraction. *)
