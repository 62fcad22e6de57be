(** BDD-based bi-decomposition — the pre-SAT baseline (paper §III-A).

    Decides decomposability and extracts functions through canonical BDD
    manipulation: for OR under [{XA|XB|XC}], [f] is decomposable iff
    [(∀XB.f) ∨ (∀XA.f) = f] — a handle comparison once the quantifications
    are built. Exact and simple, but the quantifications inherit the
    BDD's exponential sensitivity to variable order and input count,
    which is the scalability wall motivating the paper's SAT/QBF route
    (ablation [a5] in the bench measures it). *)

val decomposable :
  ?max_nodes:int ->
  Step_core.Problem.t ->
  Step_core.Gate.t ->
  Step_core.Partition.t ->
  bool option
(** [Some] answer, or [None] when the BDD blows past [max_nodes]
    (default 200_000). *)

val extract :
  ?max_nodes:int ->
  Step_core.Problem.t ->
  Step_core.Gate.t ->
  Step_core.Partition.t ->
  (Step_aig.Aig.lit * Step_aig.Aig.lit) option
(** Decomposition functions computed on the BDD and converted back to AIG
    edges of the problem's manager ([None] on blowup or when not
    decomposable). The results satisfy [f = fA <OP> fB] and depend only on
    their partition blocks, like {!Step_core.Extract}. *)
