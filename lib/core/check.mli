(** Decomposability decisions (the paper's Proposition 1 and its duals).

    {!decomposable} is the SAT-based production path (through {!Copies});
    {!decomposable_semantic} recomputes the answer from truth tables and
    exists to cross-validate the SAT path in tests — it is exponential in
    the support size. *)

val decomposable : Problem.t -> Gate.t -> Partition.t -> bool
(** Decomposability, decided by {!Copies.check} on a fresh [Copies.t]
    with no deadline. *)

val decomposable_semantic : Problem.t -> Gate.t -> Partition.t -> bool
(** Truth-table reference: checks [f = fA <OP> fB] pointwise using the
    closed-form decomposition functions ([fA = ∀XB.f] for OR, [∃XB.f] for
    AND, cofactors for XOR). Only use with small supports. Applied to
    a problem and a gate alone, it tabulates f once and answers every
    partition then asked from that table. *)
