(** Proof-carrying certificates for decomposition answers.

    Builds {!Step_cert.Cert} records from the same checks the pipeline
    solves, rebuilt by {!Copies.certificate} as assumption-free CNFs on
    a proof-logging solver: the OR/AND scaffold with the partition's
    selectors as unit clauses, XOR's four-point miter with its parity as
    clauses. Their refutations export as LRAT proofs:

    - a decomposed PO gets a ["prop1"] obligation — the UNSAT proof that
      the check of the claimed partition is unsatisfiable (Proposition
      1: the partition decomposes [f]);
    - an indecomposable PO gets a ["witness"] obligation — a SAT model
      showing one concrete balanced partition fails to decompose [f] (a
      sample refutation; the universal claim is as strong as the QBF
      search that made it);
    - extracted [fA]/[fB] get an ["equivalence"] obligation — the UNSAT
      proof of the [f ⊕ (fA <gate> fB)] miter.

    By default every certificate is immediately re-validated by the
    independent checker before being returned. *)

exception Refuted of string
(** The proof-logging re-solve contradicted the claim being certified
    (e.g. a "decomposed" partition whose check is satisfiable) — a
    soundness alarm about the answer itself, not a certificate-format
    problem. *)

type t = {
  ok : bool;  (** The independent checker accepted every obligation. *)
  diags : Step_lint.Diag.t list;  (** Checker findings; empty when [ok]. *)
  gen_s : float;  (** Time spent re-solving with proofs + exporting. *)
  check_s : float;  (** Time spent in the independent checker. *)
  proof_bytes : int;
}
(** The checked summary of a certificate. It holds none of the
    certificate's obligations, so a result can keep it at no cost. *)

val for_po :
  ?check:bool ->
  po:string ->
  method_name:string ->
  Problem.t ->
  Gate.t ->
  Partition.t option ->
  (Step_cert.Cert.t * t) option
(** Certificate for one primary-output answer, with its summary. [None]
    when there is nothing to certify (trivial support and no partition).
    [check] (default [true]) runs the independent checker.
    @raise Refuted when the re-solve contradicts the claim. *)

val equivalence_obligation :
  Problem.t ->
  Gate.t ->
  fa:Step_aig.Aig.lit ->
  fb:Step_aig.Aig.lit ->
  Step_cert.Cert.obligation option
(** Proof-carrying miter refutation for extracted cofactors; [None] when
    the miter folds to constant false structurally.
    @raise Refuted when the miter is satisfiable. *)

val of_cert : ?file:string -> Step_cert.Cert.t -> t
(** Checks a bare certificate (e.g. one loaded from a cache entry on
    disk) with the independent checker; [gen_s] is 0. *)

val add_obligation : t -> po:string -> Step_cert.Cert.obligation -> t
(** [add_obligation t ~po ob] checks [ob] on its own and folds the
    verdict, its proof size and the check time into [t]: the summary of
    [t]'s certificate with [ob] appended. *)
