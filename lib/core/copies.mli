(** The multi-copy satisfiability scaffold behind all decomposition checks.

    For OR bi-decomposition the paper's Proposition 1 asks whether

    [f(X) ∧ ¬f(X') ∧ ¬f(X'')]

    is unsatisfiable, where copy [X'] may differ from [X] only on [XA] and
    copy [X''] only on [XB]. This module encodes the copies {e once}, with
    two {e selector} literals per variable: assuming [sᵢ] states "[i] is
    not in [XA]", assuming [tᵢ] states "[i] is not in [XB]" (assuming both
    puts [i] in [XC]). A partition is then just an assumption set, so
    checking another partition, extracting MUSes over the selectors, or
    validating QBF candidates all reuse the same learned clauses.

    Per gate, the asserted matrix and the equalities carried by the
    selectors are:

    - OR: [f ∧ ¬f' ∧ ¬f'']; [sᵢ ⇒ (xᵢ ≡ x'ᵢ)], [tᵢ ⇒ (xᵢ ≡ x''ᵢ)].
    - AND: dual on [¬f]: [¬f ∧ f' ∧ f'']; same selector equalities.
    - XOR: four copies and the four-point condition
      [f(X) ⊕ f(X') ⊕ f(X'') ⊕ f(X''')] asserted (satisfiable = not
      decomposable), where the fourth point must combine the primed values:
      [x'''ᵢ = x'ᵢ] on [XA], [x''ᵢ] on [XB], [xᵢ] on [XC]. This is captured
      monotonically by letting each selector carry {e two} equalities:
      [sᵢ ⇒ (xᵢ ≡ x'ᵢ) ∧ (x'''ᵢ ≡ x''ᵢ)] and
      [tᵢ ⇒ (xᵢ ≡ x''ᵢ) ∧ (x'''ᵢ ≡ x'ᵢ)].

    [Unsat] under a partition's assumptions means the function is
    bi-decomposable with that gate and partition.

    A scaffold also carries the one simulation {!Screen} of its problem
    and gate, built on first use. STEP-MG and the QBF search that it
    bootstraps share a scaffold, so they read one pair graph and the
    search reuses MG's learnt clauses. *)

type t

val create : ?proof:bool -> Problem.t -> Gate.t -> t
(** With [~proof:true] the underlying solver logs resolution chains, so a
    refutation obtained {e without assumptions} (e.g. with a partition's
    selector assumptions added as unit clauses, see {!Certify}) can be
    exported as a DRAT/LRAT certificate. Default [false]: proof logging
    disables clause minimization and keeps deleted clause literals, so it
    is never turned on for the hot solve path. *)

val resolve : caller:string -> t option -> Problem.t -> Gate.t -> t
(** [resolve ~caller copies p g] is the given scaffold, or a fresh one for
    [p] and [g] when there is none.
    @raise Invalid_argument, with a message that starts with [caller],
    if the given scaffold was built for another problem or gate (it names
    both gates). *)

val solver : t -> Step_sat.Solver.t
(** The underlying solver, for selector-set searches (MUS, seed scans)
    that assume more than one partition's selectors. *)

val screen : t -> Screen.t
(** The scaffold's screen, built on first use: a scaffold that never asks
    for it (a certificate's, an LJH probe's) compiles no simulator. *)

val alpha_selector : t -> int -> Step_sat.Lit.t
(** [alpha_selector c i]: assuming it keeps [i] out of [XA].
    @raise Not_found if [i] is not in the support. *)

val beta_selector : t -> int -> Step_sat.Lit.t
(** Assuming it keeps [i] out of [XB]. *)

val assumptions : t -> Partition.t -> Step_sat.Lit.t list
(** Selector assumptions encoding the partition: [sᵢ] for [i ∉ XA] and
    [tᵢ] for [i ∉ XB].
    @raise Invalid_argument if the partition does not cover the support. *)

val check : ?deadline:float -> t -> Partition.t -> Step_sat.Solver.result
(** [Unsat] = decomposable; [Sat] = not decomposable (a counterexample is
    then available via {!model_points}); [Unknown] = the absolute
    {!Step_obs.Clock} [deadline] (default none) passed. *)

val model_points : t -> bool array * bool array * bool array
(** After a [Sat] answer: the model's points [(x, x', x'')] over the
    support positions (the order of [Problem.support]). Under a
    partition's assumptions [x'] differs from [x] only on XA and [x'']
    only on XB, and for XOR the fourth copy is [x ⊕ x' ⊕ x''], so the
    three points are the whole counterexample (see {!Screen.load}). *)
