(** Validation of computed decompositions.

    Every decomposition the library emits can be checked end-to-end:
    support containment of [fA]/[fB] in their partition blocks and
    SAT-based equivalence of [f] with [fA <OP> fB] (a miter refutation). *)

val equivalent :
  Problem.t -> Gate.t -> fa:Step_aig.Aig.lit -> fb:Step_aig.Aig.lit -> bool
(** SAT check that [f ⊕ (fA <OP> fB)] is unsatisfiable. *)

val decomposition :
  Problem.t ->
  Gate.t ->
  Partition.t ->
  fa:Step_aig.Aig.lit ->
  fb:Step_aig.Aig.lit ->
  bool
(** [fA] structurally depends only on [XA ∪ XC], [fB] only on
    [XB ∪ XC], and {!equivalent} holds. *)
