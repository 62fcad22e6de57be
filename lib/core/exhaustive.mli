(** Exhaustive optimum-partition search by enumerating all partitions.

    The ground truth the paper's QBF models are meant to match: every
    non-trivial partition of the support is decided on f's truth table
    ({!Check.decomposable_semantic}, tabulated once per call) and scored.
    No SAT solver and no code of {!Copies} or {!Screen} is involved, so
    the answers share nothing with the search they check. Exponential
    ([3^n] partitions) — test/ablation use only. *)

val best :
  ?objective:(Partition.t -> int) ->
  Problem.t ->
  Gate.t ->
  Partition.t option
(** Minimizing partition under [objective] (default
    {!Partition.disjointness_k}) among all decomposable non-trivial
    partitions; ties broken arbitrarily. [None] when the function is not
    bi-decomposable with this gate. *)

val partitions : Problem.t -> Partition.t list
(** Every non-trivial partition of the support, as [Partition.make]
    builds it: [3^n] minus the trivial ones, neither canonicalized nor
    deduplicated. *)

val all_decomposable : Problem.t -> Gate.t -> Partition.t list
(** Every decomposable non-trivial partition, canonicalized by
    {!Partition.canonical} and deduplicated. A partition with
    [|XA| <> |XB|] and its [XA]/[XB] swap are reported once, with the
    larger set as [XA]; when [|XA| = |XB|] both orders are listed.
    @raise Invalid_argument when the support has more than 20 inputs. *)
