(** BLIF reading and writing.

    Supports the combinational subset used by logic-synthesis benchmarks:
    [.model], [.inputs], [.outputs], [.names] with SOP covers, [.latch] and
    [.end], plus [#] comments and [\ ] line continuations. Sequential
    circuits are converted to combinational form on load, as ABC's [comb]
    command does: each latch output becomes a primary input and each latch
    data input becomes an extra primary output (named [<latch>$in]). *)

val parse_string : string -> Circuit.t
(** @raise Failure on syntax errors, undefined signals or combinational
    loops. *)

val parse_file : string -> Circuit.t

val check : ?file:string -> string -> Step_lint.Diag.t list
(** The findings of the reader's first pass, in line order: undriven
    signals (BLF001), multiply-driven signals (BLF002), duplicate
    [.inputs]/[.outputs] declarations (BLF003). [file] seeds the
    diagnostic locations. *)

val to_string : Circuit.t -> string
(** Writes the circuit as structural BLIF (two-input AND covers plus
    inverters at complemented outputs). *)

val write_file : string -> Circuit.t -> unit
