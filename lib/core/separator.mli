(** Minimum vertex separators of a small undirected graph.

    For XOR, [f = fA(XA, XC) ⊕ fB(XB, XC)] holds exactly when no edge of
    f's pair graph joins XA to XB (an edge [(i, j)] means
    [D_i D_j f ≢ 0]). So the XOR partition of least [|XC|] is a minimum
    vertex separator of that graph, which {!Qbf_model.optimize} asks of
    the graph it has learned so far.

    The search is Even's vertex-connectivity algorithm. A minimum
    separator [S] leaves out one of the vertices [v₀ … v_|S|], and the
    first vertex it leaves out, [vᵢ], has some later vertex [vⱼ] in
    another component of the graph less [S]. So it suffices to run, from
    each of [v₀ … v_k] (k the current bound) to every later vertex it is
    not adjacent to, a unit-capacity max-flow on the split graph: each
    vertex is an arc of capacity 1, each edge two arcs that are never
    cut. The bound falls with every smaller separator found. Pure: no
    solver, no simulation. *)

val minimum : int -> (int -> int -> bool) -> below:int -> int array option
(** [minimum n adjacent ~below] is the side array (per vertex: 0 in XA,
    1 in XB, 2 in XC) of a minimum vertex separator of the graph on
    vertices [0 … n−1]: XA and XB are non-empty, no edge joins them, and
    [|XC|] is the least possible, provided that it is below [below].
    [None] when no separator has fewer than [below] vertices, as for a
    complete graph, which has none. XA is the side of the lower vertex
    of the pair whose flow gave the separator. [adjacent] must be
    symmetric and irreflexive; it is read once per vertex pair. *)
