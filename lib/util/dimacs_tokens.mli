(** The DIMACS-family line tokenizer (CNF, QDIMACS, DRAT, LRAT).

    It sits below both the solver's readers ([Step_sat.Dimacs]) and the
    independent certificate checker ([Step_cert]), so the checker shares
    this one function with the engine and links no solver code. *)

val split : string -> string list
(** The line is trimmed, then spaces, tabs and carriage returns all
    separate tokens (files written on Windows or with tab-aligned
    clauses are valid). No token is empty. *)
