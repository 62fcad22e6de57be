(** DRAT proof export (with deletion lines).

    A proof-logging {!Solver} that answered [Unsat] (without assumptions)
    can emit its learned clauses in derivation order, interleaved with the
    [d] (deletion) lines produced by the learned-clause database
    reduction, ending with the empty clause — a replayable DRAT
    certificate. The independent checker for it is
    [Step_cert.Cert.check_drat], which shares no code with the CDCL
    engine. *)

exception No_proof of string
(** Raised by the exporters when the solver has no exportable refutation:
    proof logging is off, or the last answer was not an assumption-free
    [Unsat]. *)

val export_string : Solver.t -> string
(** The learned-clause trace in derivation order, one clause per line of
    [0]-terminated DIMACS literals, with [d]-prefixed deletion lines
    spliced at the positions where [reduce_db] dropped each clause, and
    the final empty clause. Replayable: no addition ever depends on a
    clause already deleted (reasons are locked and hence never reduced).
    @raise No_proof if the solver has no recorded refutation. *)
