(** ASCII AIGER (.aag) reading and writing.

    Combinational subset: latches are converted on load the same way as in
    {!Blif} (latch outputs become inputs, latch next-state functions become
    extra outputs). Symbol-table entries for inputs and outputs are honored
    and emitted. *)

val parse_string : string -> Circuit.t
(** @raise Failure on malformed input. *)

val parse_file : string -> Circuit.t

val check : ?file:string -> string -> Step_lint.Diag.t list
(** The findings of the same pass, in line order: malformed/truncated
    header or body (AAG001), multiply-defined variables (AAG002),
    references to undefined or out-of-range literals (AAG003). [file]
    seeds the diagnostic locations. *)

val to_string : Circuit.t -> string

val write_file : string -> Circuit.t -> unit
