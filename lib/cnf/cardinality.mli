(** Cardinality constraints over SAT literals.

    The central encoding is the {e totalizer} (Bailleux–Boutaleb): given
    input literals [l_1 .. l_n] it produces sorted output literals
    [o_1 .. o_n] with [o_i ⇔ (at least i inputs are true)]. Because bounds
    are then single literals, the optimum-search loops of the paper
    (iterating the target [k] of constraints (5), (6), (8)) re-solve the
    same CNF under different assumptions instead of re-encoding. *)

type counter = { outputs : Step_sat.Lit.t array }
(** [outputs.(i)] is true iff at least [i + 1] inputs are true. *)

val totalizer : Step_sat.Solver.t -> Step_sat.Lit.t array -> counter
(** Encodes the full (two-sided) totalizer for the given inputs: a tree
    whose left subtree counts the first [n / 2] inputs. Its clauses go
    through one scratch buffer ({!Step_sat.Solver.add_clause_array}). *)

val at_most : counter -> int -> Step_sat.Lit.t option
(** Literal asserting "at most [k] inputs are true"; [None] when the bound
    is trivially satisfied ([k >= n]).
    @raise Invalid_argument if [k < 0]. *)

val at_least : counter -> int -> Step_sat.Lit.t option
(** Literal asserting "at least [k] inputs are true"; [None] for [k <= 0].
    @raise Invalid_argument if [k > n] (unsatisfiable as a literal would
    be meaningless: assert the negation of [at_most (k-1)] instead). *)

val size : counter -> int

val add_at_least_one : Step_sat.Solver.t -> Step_sat.Lit.t list -> unit
(** Plain clause [l_1 ∨ ... ∨ l_n]. *)

val add_bound_difference :
  Step_sat.Solver.t -> left:counter -> right:counter -> k:int ->
  activator:Step_sat.Lit.t -> unit
(** Clauses asserting, once [activator] is assumed, that
    [count(left) − count(right) ≤ k]: for every [j ≥ 1],
    [left ≥ k + j ⇒ right ≥ j]. This is the bound of the balancedness
    target, [|XA| − |XB| ≤ k]. *)
