(** Decomposition certificates and their independent checker.

    A certificate is a serializable record, one per primary output,
    packaging everything needed to re-validate a pipeline answer without
    trusting the solvers that produced it: the gate and variable
    partition claimed, plus a list of {e obligations} — self-contained
    CNFs (plain DIMACS ints, packed) with either an UNSAT proof (textual LRAT or
    DRAT) or a SAT model. The checker shares no code with the CDCL
    engine beyond the DIMACS-family tokenizer ([Step_util.Dimacs_tokens]):
    it parses the proof text and replays it with a naive unit
    propagation over a private clause store, using LRAT antecedent hints
    for linear-time checking with a full RUP fallback, and evaluates SAT
    models clause by clause.

    Findings are {!Step_lint.Diag} errors under the [PRF] rule family:
    [PRF001] syntax, [PRF002] truncation, [PRF003] id ordering, [PRF004]
    undefined/deleted clause reference, [PRF005] no empty clause,
    [PRF006] RUP/hint failure, [PRF007] model/certificate mismatch. An
    empty result means the certificate is valid. *)

type format = Drat | Lrat

type answer =
  | Unsat of { format : format; proof : string }
      (** The obligation's CNF is unsatisfiable; [proof] is the textual
          refutation in the given format. *)
  | Sat of int list
      (** The CNF is satisfiable; the model as DIMACS literals. *)

type obligation = {
  label : string;  (** e.g. ["prop1"], ["witness"], ["equivalence"]. *)
  n_vars : int;
  cnf : int array;
      (** DIMACS clauses, self-contained, packed: each clause's literals
          followed by a 0 (see {!pack_cnf}). *)
  answer : answer;
}

type t = {
  po : string;
  gate : string;
  method_ : string;
  partition : (int list * int list * int list) option;
      (** Claimed [(XA, XB, XC)] input-index blocks; [None] for
          indecomposable answers. *)
  obligations : obligation list;
}

val pack_cnf : int list list -> int array
(** [[[1; -2]; [2]]] packs to [[|1; -2; 0; 2; 0|]]. *)

val unpack_cnf : int array -> int list list
(** Inverse of {!pack_cnf}. Literals after the last 0 form one more
    clause. *)

val obligation_proof_bytes : obligation -> int
(** Size of the obligation's proof text; 0 for a model. *)

val proof_bytes : t -> int
(** Total size of embedded proof texts. *)

val check : ?file:string -> t -> Step_lint.Diag.t list
(** Re-validates every obligation; empty iff the certificate is valid.
    Updates the [cert.checked] / [cert.failed] / [cert.proof_bytes] /
    [cert.check_s] metrics. *)

val check_obligation : ?file:string -> po:string -> obligation -> Step_lint.Diag.t list

val check_lrat :
  ?file:string ->
  item:string ->
  n_vars:int ->
  cnf:int array ->
  proof:string ->
  unit ->
  Step_lint.Diag.t list
(** Checks a textual LRAT refutation of the packed [cnf] (clauses
    pre-numbered 1..m in order). Empty iff the proof is a valid refutation. *)

val check_drat :
  ?file:string ->
  item:string ->
  n_vars:int ->
  cnf:int array ->
  proof:string ->
  unit ->
  Step_lint.Diag.t list
(** Same for textual DRAT (RUP additions with [d] deletion lines). *)

val lint : ?file:string -> format -> string -> Step_lint.Diag.t list
(** Format-level lint of a textual proof trace, through the same line
    parser as the checkers but without the CNF: non-integer tokens,
    tokens after the terminating 0, an LRAT line without a leading id or
    a negative deletion id (PRF001); a line missing its 0 terminator(s)
    or an empty proof (PRF002); non-increasing LRAT addition ids
    (PRF003); no empty-clause line (PRF005). Unlike the checkers it does
    not stop at the first finding. Lines whose first token is [c] are
    comments. *)

val check_model :
  ?file:string ->
  item:string ->
  cnf:int array ->
  model:int list ->
  unit ->
  Step_lint.Diag.t list
(** Checks that [model] satisfies every clause of [cnf]. *)

val to_json : t -> Step_obs.Json.t

val of_json : Step_obs.Json.t -> (t, string) result

val of_string : string -> (t, string) result

val save : string -> t -> unit
(** Atomic (temp file + rename) write of the JSON form. *)

val load : string -> (t, string) result

val file : dir:string -> string -> string
(** [file ~dir po] is [dir/<po>.cert.json], the PO name made
    filesystem-safe (characters outside [[A-Za-z0-9._-]] become [_]):
    where [Config.cert_dir] puts the output's certificate. *)
