(** DIMACS CNF reading and writing.

    Used by the tests and the [step] CLI to exchange CNF problems; the rest
    of the pipeline talks to {!Solver} directly. *)

type cnf = { num_vars : int; clauses : Lit.t list list }

(** {2 The scanner}

    One line-tracking scanner reads DIMACS CNF and QDIMACS text for the
    strict readers below, for {!Step_qbf.Qdimacs} and for [step lint]. It
    keeps going after a defect and reports every finding of the CNF and
    QDM rule families (docs/LINT.md). *)

type quantifier = Exists | Forall

type scan = {
  n_vars : int;
      (** The larger of the last [p cnf] header's variable count (0 if it
          is not an integer) and the largest variable seen. *)
  prefix : (quantifier * int list) list;
      (** Quantifier blocks in file order, 1-based variables; always [[]]
          unless [~qdimacs:true]. *)
  matrix : int list list;
      (** Clauses as written (DIMACS-signed literals), a trailing
          unterminated clause auto-closed. *)
  diags : Step_lint.Diag.t list;
      (** Every finding, in line order: variables beyond the header bound
          (CNF001), clause-count mismatch (CNF002), duplicate literals
          (CNF003), tautologies (CNF004), duplicate clauses (CNF005), an
          unterminated trailing clause (CNF006), syntax defects (CNF007);
          with [~qdimacs:true] also free variables (QDM001), variables
          quantified twice (QDM002), empty blocks (QDM003), adjacent
          same-quantifier blocks (QDM004) and quantifier lines after the
          first clause (QDM005). *)
  fatal : string option;
      (** The first defect the strict readers reject: a malformed [p]
          line, a non-integer clause token, or a non-integer or negative
          quantified variable. Findings such as CNF001/CNF002 or QDM001
          are errors for the linter but not for the readers, which
          tolerate undersized headers and bind free variables. *)
}

val scan : ?file:string -> qdimacs:bool -> string -> scan
(** [file] seeds the diagnostic locations. [~qdimacs:true] reads [e]/[a]
    lines as quantifier blocks. *)

(** {2 Strict reading} *)

val parse_string : string -> cnf
(** Parses DIMACS CNF text. Tolerates missing/undersized [p cnf] headers
    (the variable count is the maximum variable seen).
    @raise Failure when {!scan} reports a [fatal] defect. *)

val parse_string_diags : ?file:string -> string -> cnf * Step_lint.Diag.t list
(** Like {!parse_string}, but also returns the findings of {!scan}, with
    the severity and message [step lint] prints. *)

val parse_file : string -> cnf

val parse_file_diags : string -> cnf * Step_lint.Diag.t list

val to_string : cnf -> string

val write_file : string -> cnf -> unit

val load_into : Solver.t -> cnf -> int list
(** Adds all clauses to the solver; returns the clause ids. *)
