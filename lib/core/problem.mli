(** A bi-decomposition problem: one completely specified function.

    Wraps an AIG edge together with its structural support. All the
    algorithms of this library take a [Problem.t]; {!of_output} builds one
    per primary output, which is how the paper processes circuits. *)

type t = {
  aig : Step_aig.Aig.t;
  f : Step_aig.Aig.lit;
  support : int list; (** Input indices the function depends on, sorted. *)
}

val of_edge : Step_aig.Aig.t -> Step_aig.Aig.lit -> t

val of_output : Step_aig.Circuit.t -> int -> t
(** Problem for the [i]-th primary output of a circuit. *)

val n_vars : t -> int
(** Support size — the [||X||] of the paper. *)

val negate : t -> t
(** Same support, complemented function (used for AND decomposition via
    the OR dual). *)
