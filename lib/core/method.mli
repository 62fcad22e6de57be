(** The partitioning methods of the paper's comparison, as a first-class
    enumeration shared by every layer (core heuristics, engine, CLI,
    bench), plus the one kernel that runs a method's search.

    Naming is one scheme everywhere: {!to_string} prints the display
    names used in reports and the paper's tables ([LJH], [STEP-MG],
    [STEP-QD], [STEP-QB], [STEP-QDB]), and {!of_string} accepts exactly
    those (case-insensitively) plus the CLI short forms ([ljh]/[bi-dec],
    [mg], [qd], [qb], [qdb]) — so the round trip
    [of_string (to_string m) = m] holds for every [m]. *)

type t =
  | Ljh (** SAT-based enumeration baseline (the Bi-dec tool). *)
  | Mg (** Group-oriented MUS (STEP-MG). *)
  | Qd (** QBF, optimum disjointness (STEP-QD). *)
  | Qb (** QBF, optimum balancedness (STEP-QB). *)
  | Qdb (** QBF, optimum combined cost (STEP-QDB). *)

val all : t list

val to_string : t -> string
(** Display name ([LJH], [STEP-MG], ...). *)

val of_string_opt : string -> t option
(** Total parser: accepts every {!to_string} output and the CLI short
    forms, case-insensitively, ignoring surrounding whitespace. *)

val of_string : string -> t
(** @raise Failure on unknown names; see {!of_string_opt}. *)

val pp : Format.formatter -> t -> unit

type outcome = {
  partition : Partition.t option;
      (** [None] = not decomposable, or nothing found within budget. *)
  optimal : bool;
      (** Proven optimal for the method's QBF target: [Qd] → disjointness,
          [Qb] → balancedness, [Qdb] → combined cost. *)
  timed_out : bool;  (** No partition, and the budget ran out. *)
  counters : (string * int) list;
      (** The method's work counters ([sat_calls], [seeds_tried],
          [refinements], ...), reported per output. *)
}

val run : time_budget:float -> t -> Problem.t -> Gate.t -> outcome
(** The one method kernel: a partition search on one problem within
    [time_budget] seconds. [Ljh] and [Mg] run {!Ljh.find} and {!Mg.find}.
    [Qd], [Qb] and [Qdb] bootstrap with STEP-MG on a quarter of the
    budget, then run {!Qbf_model.optimize} on the method's target with
    what is left, on the same {!Copies} scaffold, as the paper does. The engine
    and {!Recursive} both search through it. *)
