(** QDIMACS parsing and 2QBF solving over it.

    Accepts prenex CNF with at most two quantifier levels (the fragment
    the paper's models live in — and the fragment AReQS decides). Free
    variables are bound existentially at the outermost level, as the
    QDIMACS standard prescribes. *)

type quantifier = Step_sat.Dimacs.quantifier = Exists | Forall

type t = {
  num_vars : int;
  prefix : (quantifier * int list) list; (** Outermost first; 0-based vars. *)
  clauses : int list list; (** DIMACS-signed literals, here ±(var+1). *)
}

val parse_string : string -> t
(** Maps {!Step_sat.Dimacs.scan} (with [~qdimacs:true]) onto {!t}.
    @raise Failure when the scan reports a [fatal] defect. *)

val parse_string_diags : ?file:string -> string -> t * Step_lint.Diag.t list
(** Like {!parse_string}, but also returns the scan's CNF and QDM
    findings. *)

val parse_file : string -> t

val parse_file_diags : string -> t * Step_lint.Diag.t list

val to_string : t -> string

type answer = True | False | Unknown

val solve : ?max_iterations:int -> ?time_budget:float -> t -> answer
(** Decides the formula with the CEGAR engine ([∃∀] directly, [∀∃] via the
    negated dual, single-level and propositional formulas by SAT).
    [time_budget] (seconds) bounds every prefix: [Unknown] once it runs
    out. [max_iterations] bounds CEGAR refinements only.
    @raise Failure on more than two quantifier alternations. *)
