(** Diagnostics for the artifact linter and the solver sanitizer.

    Every well-formedness checker in the repository — the offline artifact
    linter ({!Lint}), the parser-carried warnings of
    [Step_sat.Dimacs]/[Step_qbf.Qdimacs], and the CDCL solver's runtime
    sanitizer — reports through this one type, so the [step lint] CLI,
    tests and pipeline wiring can render, filter and count findings
    uniformly. Rule codes are stable identifiers (catalogued in
    docs/LINT.md); renderers reuse {!Step_obs.Json} for the JSON side. *)

type severity = Error | Warning | Info

type location = {
  file : string option;  (** Artifact path, when linting a file. *)
  line : int option;  (** 1-based source line, when known. *)
  item : string option;
      (** Non-textual anchor: a node id, clause index, signal name … *)
}

type t = {
  code : string;  (** Stable rule code, e.g. ["CNF002"], ["AIG001"]. *)
  severity : severity;
  location : location;
  message : string;
}

val no_location : location

val make :
  ?file:string -> ?line:int -> ?item:string ->
  code:string -> severity:severity -> string -> t
(** [make ~code ~severity message] builds a diagnostic. *)

val error : ?file:string -> ?line:int -> ?item:string -> code:string -> string -> t

val warning : ?file:string -> ?line:int -> ?item:string -> code:string -> string -> t

val info : ?file:string -> ?line:int -> ?item:string -> code:string -> string -> t

val with_file : string -> t -> t
(** Overrides the file of the location (used by dispatchers that lint
    in-memory text on behalf of a path). *)

val sort_by_line : t list -> t list
(** Stable sort by source line; findings without a line go last. The
    format readers emit in scan order and return this order. *)

val severity_to_string : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

val compare_severity : severity -> severity -> int
(** [Error] sorts before [Warning] before [Info]. *)

val count_errors : t list -> int

val count_warnings : t list -> int

val has_errors : t list -> bool

val to_text : t -> string
(** One line: [file:line: severity CODE: message] (the location prefix is
    elided when unknown). *)

val render : t list -> string
(** All diagnostics, one per line, followed by nothing — callers append
    their own summary. Empty string for the empty list. *)

val summary : t list -> string
(** E.g. ["2 errors, 1 warning"]; ["clean"] when empty. *)

val to_json : t -> Step_obs.Json.t
(** Object with [code], [severity], [message] and the location fields that
    are present. *)

val list_to_json : t list -> Step_obs.Json.t
