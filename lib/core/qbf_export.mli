(** QDIMACS export of the paper's QBF models.

    Emits the negated model (9) —

    [∀ α,β ∃ X,X',X'' (and Tseitin variables) . matrix ∨ ¬fN ∨ ¬fT]

    — as a standard QDIMACS file, so the exact instances this library
    solves with its CEGAR engine can be handed to any external QBF solver.
    The encoding mirrors {!Qbf_model}: control variables [αᵢ, βᵢ] in the
    universal block; function copies, selector-equality structure,
    non-triviality [fN] and the totalizer-based target bound [fT ≤ k] in
    the existential block. The formula is {e false} iff a partition
    meeting the bound exists (a counterexample to it is the partition),
    matching Section IV-A.5 of the paper.

    Because QDIMACS is pure prenex CNF, the disjunction of model (9) is
    encoded with two fresh switch variables [sN, sT] in the existential
    block: clauses [(matrix-clauses ∨ sN ∨ sT)] … realized by implication
    guards — see the implementation for the exact clause structure. *)

val or_model :
  ?k:int ->
  ?target:Qbf_model.target ->
  Problem.t ->
  string
(** QDIMACS text of model (9) for OR bi-decomposition of the given
    function with target bound [k] (default: the loosest non-trivial
    bound, [n − 2], with [target] defaulting to [Disjointness]).
    @raise Invalid_argument if the support has fewer than 2 variables. *)

val parse_answer : expected_decomposable:bool -> Step_qbf.Qdimacs.answer -> bool option
(** Interprets a QBF solver's verdict on an exported instance:
    [False] means decomposable within the bound, [True] means not;
    returns whether it matches [expected_decomposable] ([None] on
    [Unknown]). *)
