(** Variable partitions [X = {XA | XB | XC}] and their quality metrics.

    [xa] and [xb] are the private input sets of the two decomposition
    functions, [xc] the shared set. Metrics follow the paper's
    Definitions 2 and 3: disjointness [εD = |XC| / |X|], balancedness
    [εB = | |XA| − |XB| | / |X|], both to be minimized, and the combined
    cost of Definition 4 (with unit weights, the quantity bounded by
    constraint (8)). *)

type t = private { xa : int list; xb : int list; xc : int list }
(** Members are sorted, pairwise disjoint input indices. *)

val make : xa:int list -> xb:int list -> xc:int list -> t
(** Sorts and checks disjointness. @raise Invalid_argument on overlap. *)

val size : t -> int
(** [|X| = |XA| + |XB| + |XC|]. *)

val is_trivial : t -> bool
(** True when [XA] or [XB] is empty. *)

val disjointness : t -> float

val balancedness : t -> float

val cost : ?weight_d:float -> ?weight_b:float -> t -> float
(** Definition 4; defaults to unit weights. *)

val combined_k : t -> int
(** The integer [|XC| + |XA| − |XB|] bounded by constraint (8); meaningful
    under the normalization [|XA| ≥ |XB|] (see {!canonical}). *)

val disjointness_k : t -> int
(** [|XC|], the integer bounded by constraint (5). *)

val balancedness_k : t -> int
(** [| |XA| − |XB| |], the integer bounded by constraint (6). *)

val canonical : t -> t
(** Swaps [XA]/[XB] if needed so that [|XA| ≥ |XB|] (the paper's symmetry
    normalization). *)

val lint : ?name:string -> support:int list -> t -> Step_lint.Diag.t list
(** Checks the partition against [support]: XA/XB/XC pairwise disjoint
    (PAR001), exactly covering the support (PAR002), and normalized to
    [|XA| ≥ |XB|] (PAR003, warning). Empty when clean. [name] labels the
    diagnostics (e.g. the output being decomposed). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
