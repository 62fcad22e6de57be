(** And-Inverter Graphs with structural hashing.

    The AIG is the circuit representation used throughout the pipeline
    (the role ABC plays for the paper's tool). A manager owns a growable
    node table; every Boolean function handled by the library is an {e edge}
    ([lit]) into some manager: an even literal points to a node, an odd
    literal to its complement. Node 0 is the constant; inputs and two-input
    AND nodes make up the rest. AND nodes are normalized (ordered fanins,
    constant folding) and structurally hashed, so edges are canonical up to
    structure. Fanins always precede a node in the id order, which makes
    node-id order a topological order.

    The structural-hash table is a flat open-addressing array of AND node
    ids, probed by comparing the stored fanins: a lookup in {!and_}
    allocates nothing, and a manager costs one word per slot (16 slots
    to start, doubled at load 1/2) rather than a boxed key and bucket per
    node. Node ids and edges are the same as with any other exact
    structural hash. *)

type t
(** A mutable AIG manager. *)

type lit = int
(** An edge: [2 * node_id + complement_bit]. Only combine literals that
    belong to the same manager. *)

val create : unit -> t

val f : lit
(** The constant-false edge. *)

val t_ : lit
(** The constant-true edge. *)

val fresh_input : ?name:string -> t -> lit
(** Allocates a new primary input and returns its positive edge. *)

val n_nodes : t -> int
(** Total nodes including the constant. *)

val n_inputs : t -> int

val n_ands : t -> int

val input : t -> int -> lit
(** [input m i] is the positive edge of the [i]-th input (creation order). *)

val input_name : t -> int -> string
(** Name of the [i]-th input (defaults to ["x<i>"]). *)

val set_input_name : t -> int -> string -> unit

(* Edge inspection *)

val node_of : lit -> int

val is_complement : lit -> bool

val not_ : lit -> lit

val is_const : lit -> bool

val is_input_edge : t -> lit -> bool

val input_index : t -> lit -> int
(** Index (creation order) of the input pointed to by the edge.
    @raise Invalid_argument if the edge is not an input. *)

val fanins : t -> int -> lit * lit
(** Fanin edges of an AND node id.
    @raise Invalid_argument for the constant or input nodes. *)

val fanin0 : t -> int -> lit
(** [fanin0 m id] is the first edge of [fanins m id], read without
    building the pair: a walk that visits every node of a cone, such as
    Tseitin encoding, allocates nothing per node. AND fanins are ordered
    ([fanin0 m id <= fanin1 m id]).
    @raise Invalid_argument for the constant or input nodes. *)

val fanin1 : t -> int -> lit
(** [fanin1 m id] is the second edge of [fanins m id], as {!fanin0}.
    @raise Invalid_argument for the constant or input nodes. *)

val node_kind : t -> int -> [ `Const | `Input of int | `And of lit * lit ]
(** Structural view of a node id: the constant, an input (carrying its
    input index), or an AND with its fanin edges. This is the hook the
    artifact linter's AIG checker consumes (see [Step_lint.Lint.aig_view]).
    @raise Invalid_argument for out-of-range ids. *)

(* Constructors (strashed) *)

val and_ : t -> lit -> lit -> lit

val or_ : t -> lit -> lit -> lit

val xor_ : t -> lit -> lit -> lit

val iff_ : t -> lit -> lit -> lit

val implies : t -> lit -> lit -> lit

val ite : t -> lit -> lit -> lit -> lit

val and_list : t -> lit list -> lit

val or_list : t -> lit list -> lit

val xor_list : t -> lit list -> lit

(* Analysis *)

val support : t -> lit -> int list
(** Indices of the inputs the edge structurally depends on, ascending. *)

val cone_size : t -> lit -> int
(** Number of AND nodes in the transitive fanin cone. *)

val depth : t -> lit -> int
(** Logic depth of the cone: longest input-to-edge path counted in AND
    nodes (inverters are free, as usual for AIGs). Constants and inputs
    have depth 0. *)

val eval : t -> (int -> bool) -> lit -> bool
(** [eval m env e] evaluates the edge under the input valuation [env]
    (indexed by input index). Linear in the cone. *)

val sim64 : t -> (int -> int64) -> lit -> int64
(** 64 parallel evaluations: each input is a 64-bit pattern vector. *)

(* Transformations *)

val compose : t -> (int -> lit option) -> lit -> lit
(** [compose m subst e] substitutes inputs by edges: input [i] becomes
    [subst i] when it is [Some g] (inputs mapping to [None] stay).
    Rebuilds the cone with strashing. *)

val cofactor : t -> int -> bool -> lit -> lit
(** [cofactor m i b e] restricts input [i] to the constant [b]. *)

val exists : ?max_nodes:int -> t -> int list -> lit -> lit
(** Existential quantification of the given inputs, by Shannon expansion
    [f|x=0 ∨ f|x=1] per variable (cheapest-support-first ordering).
    @raise Blowup if the manager grows past [max_nodes] (default: no bound). *)

val forall : ?max_nodes:int -> t -> int list -> lit -> lit

exception Blowup

(* Import between managers *)

val import : t -> src:t -> map_input:(int -> lit) -> lit -> lit
(** Copies the cone of an edge of [src] into the destination manager,
    sending input [i] of [src] to the destination edge [map_input i]. *)
