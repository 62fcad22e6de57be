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

    Most seeds fail, so each seed is screened by cone simulation
    ({!Screen.refute} on the side array [u ↦ XA], [v ↦ XB], rest [↦ XC])
    before its SAT call. A refuted seed has a genuine counterexample
    tuple, so its SAT call would have answered [Sat]: it is skipped, and
    the scan order, [seeds_tried] and the partition found are those of
    the unscreened scan. *)

type result = {
  partition : Partition.t option; (** [None] = not decomposable (or budget). *)
  seeds_tried : int;
  sat_calls : int;
      (** Seeds that reached SAT; the other [seeds_tried - sat_calls]
          were refuted by simulation. *)
  cpu : float; (** Seconds. *)
}

type seed_order =
  | Spread
      (** Index-distance ordering (large gaps first) — the default. *)
  | Signature
      (** Simulation-guided: random 64-bit simulation computes a
          sensitivity signature [dᵥ = f ⊕ f[v flipped]] per variable, and
          pairs whose signatures overlap least are tried first — variables
          that toggle the output on disjoint input regions are the most
          likely to sit in different blocks of a decomposition. Measured
          in ablation [a7]. *)

val seeds : ?seed_order:seed_order -> Problem.t -> (int * int) list
(** The seed pairs [(u, v)] in scan order (default [Spread]). *)

val find :
  ?copies:Copies.t ->
  ?seed_limit:int ->
  ?seed_order:seed_order ->
  ?time_budget:float ->
  Problem.t ->
  Gate.t ->
  result
(** Scans seed pairs (bounded by [seed_limit], default [4 * n] capped to
    all pairs) until one admits a decomposition, then minimizes. Supports
    of size < 2 are never decomposable. *)
