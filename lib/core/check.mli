(** Decomposability decisions (the paper's Proposition 1 and its duals).

    {!decomposable} is the SAT-based production path (through {!Copies}).
    {!decomposable_semantic} decides the same question on f's truth
    table, with no SAT call and no code of {!Copies} or {!Screen}: it is
    the reference that {!Exhaustive} enumerates and the tests compare the
    SAT path with. {!pair_graph} reads a gate's pair graph off the same
    table. Both are exponential in the support size. *)

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

val pair_graph : Problem.t -> Gate.t -> bool array array
(** The exact pair graph of f for a gate, on its truth table:
    [g.(i).(j)] for support positions [i <> j] when some point [x] makes
    the tuple [(x, x ⊕ e_i, x ⊕ e_j)] violate the gate condition:
    - OR: [f(x) ∧ ¬f(x ⊕ e_i) ∧ ¬f(x ⊕ e_j)];
    - AND: [¬f(x) ∧ f(x ⊕ e_i) ∧ f(x ⊕ e_j)];
    - XOR: [D_i D_j f(x) = 1], that is
      [f(x) ⊕ f(x ⊕ e_i) ⊕ f(x ⊕ e_j) ⊕ f(x ⊕ e_i ⊕ e_j) = 1].

    Symmetric, false on the diagonal. For every gate the seed partition
    [{i | j | rest}] decomposes exactly when [(i, j)] is no edge, so f is
    indecomposable exactly when the graph is complete. For XOR, more:
    f is an XOR of [fA(XA, XC)] and [fB(XB, XC)] exactly when no edge
    joins XA to XB.
    @raise Invalid_argument when the support has more than 20 inputs. *)
