(** Decomposability decisions (the paper's Proposition 1 and its duals).

    {!decomposable} is the SAT-based production path (through {!Copies}).
    {!decomposable_semantic} decides the same question on f's truth
    table, with no SAT call and no code of {!Copies} or {!Screen}: it is
    the reference that {!Exhaustive} enumerates and the tests compare the
    SAT path with. It is exponential in the support size. *)

val decomposable : Problem.t -> Gate.t -> Partition.t -> bool
(** Decomposability, decided by {!Copies.check} on a fresh [Copies.t]
    with no deadline. *)

val decomposable_semantic : Problem.t -> Gate.t -> Partition.t -> bool
(** Truth-table reference, from the closed forms of the paper's §III-A:
    OR holds iff [f = ∀XB.f ∨ ∀XA.f], AND iff [f = ∃XB.f ∧ ∃XA.f], and
    XOR iff [f(x) ⊕ f(x|XB←0) ⊕ f(x|XA←0) ⊕ f(x|XA∪XB←0) = 0] at every
    point [x]. Applied to a problem and a gate alone, it tabulates f once
    and answers every partition then asked from that table, keeping the
    quantified table of each block it has met.
    @raise Invalid_argument when the support has more than 20 inputs. *)
