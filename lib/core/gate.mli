(** The two-input gate of a bi-decomposition [f = fA <OP> fB]. *)

type t = Or_gate | And_gate | Xor_gate

val all : t list

val to_string : t -> string
(** Display name: ["OR"], ["AND"], ["XOR"] — exactly what the CLI and the
    reports print. *)

val of_string_opt : string -> t option
(** Total parser: accepts every {!to_string} output case-insensitively
    (plus the ["or_gate"]/["or-gate"] spellings), ignoring surrounding
    whitespace — the same naming scheme everywhere. *)

val of_string : string -> t
(** @raise Failure on unknown names; see {!of_string_opt}. *)

val pp : Format.formatter -> t -> unit

val apply : t -> bool -> bool -> bool
(** Boolean semantics of the gate. *)

val edge :
  Step_aig.Aig.t -> t -> Step_aig.Aig.lit -> Step_aig.Aig.lit ->
  Step_aig.Aig.lit
(** [edge aig g a b] is the AIG edge of [a <g> b] in [aig]. *)
