(** Refuting CEGAR candidates by simulation, and shrinking
    counterexamples.

    Checking a candidate partition of {!Qbf_model} costs one SAT call on
    the {!Copies} scaffold, and almost every candidate fails that check.
    A screen refutes most of them without SAT: it simulates f's cone on
    63 point tuples per machine word and looks for a tuple that violates
    the gate condition under the candidate. The tuples come from a bank of
    earlier counterexamples, projected onto the candidate, then from
    seeded random words.

    A tuple is three points over the support positions (the order of
    [Problem.support]): the base point [x], the copy [x'] that differs
    from [x] only on XA, and the copy [x''] that differs only on XB. For
    XOR the fourth point is [x''' = x ⊕ x' ⊕ x''], i.e. [x'] on XA, [x'']
    on XB and [x] on XC, as the {!Copies} selectors force it. A tuple
    {e violates} when

    - OR: [f(x) ∧ ¬f(x') ∧ ¬f(x'')],
    - AND: [¬f(x) ∧ f(x') ∧ f(x'')],
    - XOR: [f(x) ⊕ f(x') ⊕ f(x'') ⊕ f(x''')].

    A violating tuple refutes every partition whose XA contains the inputs
    where [x'] differs from [x] and whose XB contains those where [x'']
    does — the CEGAR refinement clause. {!shrink} makes that clause as
    short as it can before it is added.

    The screen also owns the {e pair graph}: the pairs (i, j) with a
    violating tuple [(x, x ⊕ e_i, x ⊕ e_j)], each of which rules out i in
    XA together with j in XB — the shortest refinement clauses. This is
    the sample-based pairwise test of Bogdanov and Wang, "Learning and
    Testing Variable Partitions". The sample is a few seeded random words
    drawn on the screen's first pair question ({!conflict} or {!pairs}).
    Each word costs n + 1 simulations, f(x) and every single flip
    [f(x ⊕ e_i)], which decide every pair for OR and AND: a pair's
    violation word is [f(x) ∧ ¬f(x ⊕ e_i) ∧ ¬f(x ⊕ e_j)] (or its dual).
    XOR also needs [f(x ⊕ e_i ⊕ e_j)], simulated the first time a pair is
    asked about. Each pair's answer is cached. The graph is read twice on
    a QBF method's scaffold ({!Copies.screen}): {!Mg.find} skips the
    seeds [{u | v | rest}] of conflicting pairs and screens its group
    MUS with it ({!Mg.mus_hook}, with {!depends} and side 3 of
    {!refute}), and {!Qbf_model.optimize} adds both clauses of every
    pair before its first bound query, or, for XOR disjointness, starts
    its separator graph from the pairs. A pair the sample misses is still
    found by a SAT call or the CEGAR loop. Such a counterexample's base
    point shows more pairs, which {!harvest} reports for every gate:
    {!Mg.find} learns them from each seed that reaches SAT, and the XOR
    separator search from each refuted candidate, after {!walk}. Neither
    feeds them back into the sampled graph. *)

(** {2 Compiled cone simulator} *)

type sim
(** f's cone flattened into slot arrays, with a preallocated value
    buffer: {!run} allocates nothing. *)

val compile : Step_aig.Aig.t -> Step_aig.Aig.lit -> inputs:int array -> sim
(** [compile aig f ~inputs] reads input [inputs.(j)] from word [j].
    @raise Invalid_argument if the cone reads an input not in [inputs]. *)

val run : sim -> int array -> int
(** [run s words] evaluates the edge on the 63 points whose bit [l] of
    [words.(j)] gives input [j] of point [l]; bit [l] of the result is
    the value on point [l]. *)

(** {2 Screen} *)

type t
(** Per-problem state: the compiled cone, the counterexample bank, the
    random generator, the pair graph and the current tuple. *)

val create : Problem.t -> Gate.t -> t
(** The generator is seeded from the gate and the support size only, so
    answers do not depend on the global [Random] state or on scheduling.
    The library builds one screen per scaffold, through {!Copies.screen}. *)

val refute : t -> int array -> bool
(** [refute t side] screens the candidate partition [side] ([side.(j)] is
    0 for XA, 1 for XB, 2 for XC, per support position). True when a
    violating tuple was found; it becomes the current tuple.

    Side 3 frees an input on both copies: [x'] and [x''] both draw their
    own bits there, and for XOR so does the fourth point, as
    {!Copies.decide} leaves all four points free on an input whose two
    selectors are both dropped. That is a state of STEP-MG's group MUS,
    not a partition, and only the answer is used ({!Mg.mus_hook}). Its
    tuple may differ from [x] in both copies on one input, so it must
    not reach {!shrink} (which rejects it), the bank or a refinement
    clause; {!Qbf_model} never passes side 3. *)

val load : t -> x:bool array -> x1:bool array -> x2:bool array -> bool
(** Makes [(x, x', x'')] the current tuple (e.g. the points of a SAT
    counterexample, see {!Copies.model_points}) and tells whether it
    violates the gate condition.
    @raise Invalid_argument if the lengths do not match the support or
    both copies differ from [x] on the same input. *)

val shrink : t -> int
(** Greedily reverts differing inputs of the current (violating) tuple
    while it still violates, testing 63 prefixes per simulation, then
    adds the result to the bank. Returns the number of inputs reverted.
    @raise Invalid_argument, banking nothing, if both copies of the
    current tuple differ from [x] on the same input (a side-3
    refutation of {!refute}), which no partition allows. *)

val conflict : t -> int -> int -> bool
(** [conflict t i j] for distinct support positions: some sampled [x]
    makes [(x, x ⊕ e_i, x ⊕ e_j)] violate, so no partition puts i in XA
    and j in XB. Symmetric in [i] and [j], since the condition is
    symmetric in the two copies. Leaves the current tuple unchanged.
    @raise Invalid_argument if [i = j] or either is out of range. *)

val depends : t -> int -> bool
(** [depends t j]: some [x] of the pair graph's sample has
    [f(x) ≠ f(x ⊕ e_j)], so f depends on support position [j]. An input
    f depends on cannot be free on both copies: for OR the tuple
    [(y, y ⊕ e_j, y ⊕ e_j)] violates, where [y] is whichever of [x] and
    [x ⊕ e_j] has [f(y) = 1] (AND: [f(y) = 0]); for XOR
    [x' = x'' = x] with fourth point [x ⊕ e_j] does. Leaves the current
    tuple unchanged.
    @raise Invalid_argument if [j] is out of range. *)

val pairs : t -> (unit -> unit) -> unit
(** [pairs t f] reports every pair of the graph. For each pair of
    support positions [i < j] with {!conflict}, it makes the tuple
    [(x, x ⊕ e_i, x ⊕ e_j)] current, at the lowest violating lane of the
    first word that shows one, and calls [f ()]; then it does the same for
    [(x, x ⊕ e_j, x ⊕ e_i)]. Pairs come in word-major order: first those
    the first word shows, in [(i, j)] order, then those only the second
    word shows, and so on. Each call reports each pair once. Its tuples
    are already minimal: reverting either flip makes two points coincide,
    so {!shrink} would revert nothing. [f] may call {!iter_diff},
    {!tuple} and {!shrink}. *)

(** {2 Pairs at a counterexample's base point}

    For XOR the pair graph has an exact meaning: [(i, j)] is an edge
    when [D_i D_j f(z) = 1] at some point [z], that is
    [f(z) ⊕ f(z ⊕ e_i) ⊕ f(z ⊕ e_j) ⊕ f(z ⊕ e_i ⊕ e_j) = 1], and
    [f = fA(XA, XC) ⊕ fB(XB, XC)] holds exactly when no edge joins XA
    to XB. {!Qbf_model.optimize} searches XOR partitions of least [|XC|]
    as separators of the edges it knows ({!Separator}), and turns each
    counterexample into edges with {!walk} and {!harvest}. For every
    gate, [(i, j)] is a pair of the exact graph exactly when the seed
    [{i | j | rest}] does not decompose ({!Check.pair_graph}); {!Mg.find}
    learns pairs with {!harvest}. *)

val walk : t -> int
(** Walks the current violating XOR tuple [(x, x', x'')] down to one
    flip per copy: it makes [(z, z ⊕ e_i, z ⊕ e_j)] current, a violating
    tuple with [i] among the inputs where [x'] differed from [x] and [j]
    among those where [x''] did, so [(i, j)] is an edge with witness
    [z]. The path is the telescoping identity
    [D_{u⊕v} g(x) = D_u g(x) ⊕ D_v g(x ⊕ u)], applied to one copy and
    then the other, 63 of its terms per simulated word. Returns the
    number of flips dropped. Leaves the bank unchanged.
    @raise Invalid_argument if the gate is not XOR, if the current
    tuple does not violate, or if both copies differ from [x] on the
    same input. *)

val harvest : t -> known:(int -> int -> bool) -> (unit -> unit) -> unit
(** [harvest t ~known f] reports every pair visible at the current
    tuple's base point [z]: for each pair [k < l] of support positions
    with [known k l] false whose tuple [(z, z ⊕ e_k, z ⊕ e_l)] violates
    the gate condition, it makes that tuple current and calls [f ()],
    which may read it with {!iter_diff} or {!tuple}. The pairs are
    - OR: those of [{k | f(z ⊕ e_k) = 0}], when [f(z) = 1];
    - AND: those of [{k | f(z ⊕ e_k) = 1}], when [f(z) = 0];
    - XOR: those with [D_k D_l f(z) = 1].

    f(z) and the n single flips are simulated 63 to a word, which
    decides every pair for OR and AND; XOR also simulates the double
    flips of the pairs asked, 63 to a word. Afterwards the current tuple
    is what it was before, and the bank and the sampled graph are
    unchanged. *)

val iter_diff : t -> xa:(int -> unit) -> xb:(int -> unit) -> unit
(** Support positions where the current tuple's [x'] (passed to [xa]) or
    [x''] (passed to [xb]) differs from [x]. *)

val tuple : t -> bool array * bool array * bool array
(** A copy of the current tuple [(x, x', x'')]. *)
