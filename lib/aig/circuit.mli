(** A combinational circuit: an AIG manager plus named primary outputs.

    Primary inputs live in the manager (with their names); this record adds
    the output functions, which are what bi-decomposition operates on
    (one decomposition problem per primary output). *)

type t = {
  name : string;
  aig : Aig.t;
  outputs : (string * Aig.lit) array;
}

val make : ?name:string -> Aig.t -> (string * Aig.lit) list -> t

val n_inputs : t -> int

val n_outputs : t -> int

val output : t -> int -> Aig.lit

val output_name : t -> int -> string

val check_output_index : t -> int -> unit
(** @raise Invalid_argument ["po I out of range (circuit has N outputs)"]
    unless [0 <= i < n_outputs c]: the one wording for a bad output
    index, shared by the engine, the CLI and the server. *)

val find_output : t -> string -> Aig.lit
(** @raise Not_found if no output has that name. *)

val support_sizes : t -> int array
(** Structural support size of each output. *)

val max_support : t -> int
(** Maximum support size over all outputs ("#InM" in the paper's tables);
    0 for a circuit without outputs. *)

val stats : t -> string
(** One-line summary: name, #inputs, #outputs, #InM, #AND nodes. *)

val compact : t -> t
(** Rebuilds the circuit into a fresh manager containing only the output
    cones. Input indices and names are preserved. Useful after heavy
    solver work (decomposition checks add copy inputs and scratch nodes to
    the shared manager). *)

val cone : t -> int -> t
(** [cone c i] rebuilds output [i] alone into a fresh manager: a
    one-output circuit with every input of [c], indices and names
    preserved, and only the nodes of that output's cone.
    @raise Invalid_argument if [i] is out of range. *)
