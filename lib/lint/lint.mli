(** Structural checks over in-memory artifacts.

    Each textual artifact format has one reader, in the module that owns
    the format, and that reader reports the format's rules:
    [Step_sat.Dimacs.scan] (CNF and QDIMACS), [Step_aig.Blif.check],
    [Step_aig.Aag.check] and [Step_cert.Cert.lint] (DRAT/LRAT). What is
    left here are the checks over in-memory structures, AIG managers and
    partitions, taken through neutral views so this library stays below
    the solver stack in the dependency order (the CDCL sanitizer reports
    {!Diag.t} too).

    Rule catalogue (see docs/LINT.md for details):
    - [AIG001]–[AIG004]: AIG node-table invariants (here)
    - [CNF001]–[CNF007]: DIMACS clause/header hygiene ([Step_sat.Dimacs])
    - [QDM001]–[QDM005]: QDIMACS prefix well-formedness ([Step_sat.Dimacs])
    - [BLF001]–[BLF003]: BLIF signal drivers ([Step_aig.Blif])
    - [AAG001]–[AAG003]: ASCII AIGER literal definitions ([Step_aig.Aag])
    - [PAR001]–[PAR003]: partition coverage and symmetry (here)
    - [SAN001]–[SAN003]: solver sanitizer ([Step_sat.Solver])
    - [PRF001]–[PRF007]: DRAT/LRAT proof traces and certificates
      ([Step_cert.Cert]: format-level rules in [lint], the semantic rules
      PRF004/PRF006/PRF007 in the checkers)
    - [IO001]: unreadable / unrecognized artifact ([step lint]) *)

(** {2 In-memory artifacts} *)

type aig_node =
  | Const
  | Input of int  (** input index *)
  | And of int * int  (** fanin edges, [2 * id + complement] *)

type aig_view = {
  n_nodes : int;
  node : int -> aig_node;
  roots : int list;  (** Root edges; [[]] disables the reachability check. *)
}
(** A structure-only view of an AIG manager. [Step_aig.Aig.node_kind]
    provides the [node] function; building the view at the call site keeps
    this library independent of the AIG package. *)

val check_aig : ?name:string -> aig_view -> Diag.t list
(** Checks acyclicity/topological fanin order and edge ranges (AIG001),
    structural-hash duplicates (AIG002), AND nodes unreachable from the
    roots (AIG003), and missed constant folding or unnormalized fanin
    order (AIG004). [name] labels the artifact in locations. *)

val check_partition :
  ?name:string ->
  support:int list ->
  xa:int list -> xb:int list -> xc:int list ->
  unit -> Diag.t list
(** Checks XA/XB/XC pairwise disjointness (PAR001), exact coverage of
    [support] (PAR002), and the paper's symmetry normalization
    [|XA| >= |XB|] (PAR003, warning). *)
