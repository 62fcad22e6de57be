(** STEP-MG: group-oriented MUS-based variable partitioning
    (Chen & Marques-Silva, VLSI-SoC'11 — the paper's fast baseline and the
    bootstrap for the QBF optimum search).

    A seed pair [(u, v)] pins [u ∈ XA] and [v ∈ XB]; if the function is
    decomposable under the seed partition [{u | v | rest}] (one SAT call),
    a group MUS over the remaining equality selectors yields an
    inclusion-minimal shared set: selectors dropped from the MUS free
    their variable into [XA] / [XB], selectors kept settle it in [XC].
    Minimality of the MUS makes the resulting [XC] irredundant — good,
    though not optimal, disjointness.

    Most seeds fail, and a seed fails exactly when [(u, v)] is a
    conflicting pair: some point [x] makes the tuple
    [(x, x ⊕ e_u, x ⊕ e_v)] violate the gate condition. The scan skips,
    with no SAT call, the seed of every pair it knows to conflict: the
    pairs of the scaffold's screen ({!Copies.screen}, {!Screen.conflict})
    and those it learns itself. Each seed that answers [Sat] gives a
    counterexample whose base point [z] refutes a whole set of pairs:
    for OR every pair of [{k | f(z ⊕ e_k) = 0}] when [f(z) = 1] (AND
    dually), for XOR every pair with [D_k D_l f(z) = 1]. The scan loads
    the counterexample into the screen and learns them all
    ({!Screen.harvest}). A known pair has a genuine counterexample, so
    its SAT call would have answered [Sat]: the scan order,
    [seeds_tried] and whether a partition is found are those of the
    unscreened scan (the MUS that follows may differ). The learned
    pairs stay local to one [find]; the screen's sampled graph, which a
    QBF search on the same scaffold reads, is not fed.

    The seed scan and the group MUS ask one check, {!Copies.decide}: an
    assumption solve on the OR/AND scaffold, a four-point miter for XOR.
    The group MUS is screened too ({!mus_hook}): a necessary selector
    answers [Sat], which simulation can often show, so deletion tests
    skip their check and one call proves an optimistic guess of the
    whole MUS ({!Step_mus.Mus.minimize}). *)

type result = {
  partition : Partition.t option; (** [None] = not decomposable (or budget). *)
  seeds_tried : int;
  sat_calls : int;
      (** Seeds that reached SAT; the other [seeds_tried - sat_calls]
          were conflicting pairs of the screen's graph or learned from
          an earlier seed's counterexample. *)
  cpu : float; (** Seconds. *)
}

val seeds : Problem.t -> (int * int) list
(** The seed pairs [(u, v)] in scan order: index distance over the
    support, large gaps first. *)

val find :
  ?copies:Copies.t -> ?time_budget:float -> Problem.t -> Gate.t -> result
(** Scans the first [min (4n, n(n-1)/2)] seed pairs until one admits a
    decomposition, then minimizes. Supports of size < 2 are never
    decomposable. [copies] must be built for the same problem and gate
    ({!Copies.resolve}).

    [time_budget] bounds the SAT work as well as the scan: every seed
    call and every MUS call runs under the same deadline. A MUS cut
    short keeps the selectors it has not decided, so the partition is
    still valid, though its [XC] may not be irredundant. *)

val mus_hook :
  Copies.t ->
  Problem.t ->
  known:(int -> int -> bool) ->
  u:int ->
  v:int ->
  Step_sat.Lit.t list ->
  bool
(** [mus_hook c p ~known ~u ~v] is the refutation hook {!find} gives
    {!Step_mus.Mus.minimize} for the seed [(u, v)]: [hook sels] is true
    only if {!Copies.decide} answers [Sat] on the hard selectors
    [[β_u; α_v]] and [sels]. [known i j] (support positions) must hold
    only for conflicting pairs, each with a point [z] that makes
    [(z, z ⊕ e_i, z ⊕ e_j)] violate; {!find} passes the pairs its scan
    knows. A selector set frees input [i] on copy 1
    when [α_i] is absent and on copy 2 when [β_i] is; an input free on
    both copies (both dropped) is side 3 of {!Copies.fill_sides} and
    {!Screen.refute}. The hook answers true
    when the scaffold's screen shows a counterexample:
    - an input free on both copies that f depends on ({!Screen.depends});
    - a pair with [known i j], [i] free on copy 1 and [j <> i] free on
      copy 2;
    - a violating tuple of {!Screen.refute} on the side array.
    The tuple the last one leaves current is not a partition's and is
    never shrunk, banked or turned into a clause. *)
