(** Counterexample-guided 2QBF solving (the AReQS algorithm of Janota &
    Marques-Silva, SAT'11, which the paper uses as its QBF back end).

    Decides formulas of the form [∃X ∀Y. φ(X, Y)] with [φ] given as an AIG
    edge whose support is partitioned into [X] and [Y]. The engine keeps
    two SAT solvers:

    - the {e abstraction} over the [X] variables, which accumulates
      instantiations [φ(X, y°)] for the counterexamples [y°] seen so far;
    - the {e verification} solver holding [¬φ] with the [X] inputs
      activatable by assumptions, queried to validate a candidate [x°].

    A candidate surviving verification is a witness; otherwise the
    counterexample refines the abstraction. Termination is guaranteed
    because each refinement removes at least the current candidate. *)

type outcome =
  | Valid of (int -> bool)
  (** A witness assignment for the existential block (indexed by AIG input
      index; variables outside [X] read as [false]). *)
  | Invalid
  (** No assignment of [X] makes [φ] true for all [Y]. *)
  | Unknown
  (** Budget exhausted. *)

type stats = {
  iterations : int; (** CEGAR refinement rounds. *)
  abstraction_nodes : int; (** AIG nodes created for instantiations. *)
}

val solve :
  ?max_iterations:int ->
  ?time_budget:float ->
  Step_aig.Aig.t ->
  matrix:Step_aig.Aig.lit ->
  exists_vars:int list ->
  forall_vars:int list ->
  outcome * stats
(** Decides [∃ exists_vars ∀ forall_vars . matrix]. Inputs of the manager
    not listed in either block must not occur in the matrix support.
    A formula [∀Y ∃X . φ] is handled by solving [∃Y ∀X . ¬φ] and reading a
    [Valid] witness as a counterexample — exactly how the paper uses the
    negated model (9).
    @raise Invalid_argument if the support strays outside the blocks. *)
