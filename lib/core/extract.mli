(** Deriving the decomposition functions [fA] and [fB] from a valid
    partition.

    Two engines are provided:

    - [`Quantify]: closed forms built directly on the AIG —
      OR: [fA = ∀XB.f], [fB = ∀XA.f]; AND: the existential duals; XOR:
      [fA = f|XB←0] and [fB = f|XA←0 ⊕ f|XA←0,XB←0]. Always applicable;
      may blow up on quantification (bounded by [max_nodes]).
    - [`Interpolate]: the paper/LJH route — [fA] is the Craig interpolant
      of [A = f(X) ∧ ¬f(X')] vs [B = ¬f(X'')] from the proof of
      Proposition 1's refutation, and [fB] the interpolant of
      [A = f ∧ ¬fA] vs [¬f] with [XA] copied. AND uses the OR dual on
      [¬f]; XOR falls back to the cofactor construction (as in the
      original tools, where interpolation is specific to OR/AND).

    Every result should be validated with {!Verify.decomposition}; both
    engines are deterministic but extraction is only sound for partitions
    that actually decompose [f]. *)

type engine = Quantify | Interpolate

type result = { fa : Step_aig.Aig.lit; fb : Step_aig.Aig.lit }

exception Timeout
(** The [deadline] passed during an interpolation refutation. *)

val run :
  ?engine:engine ->
  ?max_nodes:int ->
  ?deadline:float ->
  Problem.t ->
  Gate.t ->
  Partition.t ->
  result
(** [deadline] (an absolute {!Step_obs.Clock} time, default [infinity])
    bounds the SAT calls of the [Interpolate] engine; quantification
    takes none.
    @raise Step_aig.Aig.Blowup when quantification exceeds [max_nodes].
    @raise Failure if the partition does not decompose the function (the
    interpolation refutation does not exist).
    @raise Timeout when [deadline] passes during an interpolation
    refutation. *)
