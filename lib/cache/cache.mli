(** Decomposition memoization keyed by canonical cone structure.

    A cache maps a canonical key (built by the engine from
    {!Step_aig.Cone.extract} plus the solve parameters) to the result of
    decomposing that cone — a partition expressed in {e canonical input
    indices}, which the engine rehydrates through the cone's recorded
    input mapping. One cache is shared by every worker domain of a run
    ({!find_or_compute} is mutex-protected, and a key being computed is
    held as pending so concurrent workers wait instead of duplicating the
    solve).

    With a [dir], entries are additionally persisted as versioned JSON
    files, one per key, written atomically (temp file + rename). On load
    every entry is validated ({!Step_lint.Diag}-style diagnostics, codes
    [CSH001]–[CSH006]); corrupt, stale or mismatched entries are skipped
    with a warning — never fatal — and are overwritten by the fresh
    result. An entry carrying a decomposition certificate is only
    trusted after the independent {!Step_cert.Cert} checker re-validates
    its proofs {e on every disk load} and the certified partition
    matches the entry's own — a tampered entry is rejected ([CSH006],
    counted by the [cache.cert_rejected] metric) and recomputed.
    Timed-out results are never stored: they depend on the budget that
    was left when the solve started, not on the cone. *)

type entry = {
  partition : Step_core.Partition.t option;
      (** In canonical input indices; [None] = proven indecomposable. *)
  proven_optimal : bool;
  timed_out : bool;  (** Never [true] for a stored entry. *)
  counters : (string * int) list;
  cert : (Step_cert.Cert.t * Step_core.Certify.t) option;
      (** Proof-carrying certificate for the answer (canonical input
          indices) with the summary of its one run of the independent
          checker: at generation, or at the disk load that rehydrated it.
          Hits reuse the summary and run no checker. Only the body is
          persisted. [None] until a certified run reports the entry:
          see {!certify}. *)
}

type t

val create : ?dir:string -> unit -> t
(** [create ~dir ()] also creates [dir] (and parents) if missing. *)

val dir : t -> string option

val find_or_compute : t -> key:string -> n_inputs:int -> (unit -> entry) -> entry * bool
(** [find_or_compute t ~key ~n_inputs compute] returns the cached entry
    for [key] (memory first, then disk) and [true]; on a miss it runs
    [compute], stores the result (unless it timed out) and returns it
    with [false]. [n_inputs] bounds the indices a disk-loaded partition
    may mention. Concurrent callers with the same key block until the
    first one finishes; if it fails or times out, one of them recomputes. *)

val certify :
  t ->
  key:string ->
  (unit -> (Step_cert.Cert.t * Step_core.Certify.t) option) ->
  (Step_cert.Cert.t * Step_core.Certify.t) option
(** [certify t ~key make] returns the certificate of the resident entry
    for [key], running [make] when it has none. [make] runs once per key:
    concurrent callers wait for it and reuse its result. The certificate
    is attached to the entry, which is republished to the cache
    directory, so later hits, in this process or a later one, reuse it.
    If [make] raises, the next caller runs it again. *)

type stats = { hits : int; misses : int; entries : int }
(** [entries] counts distinct keys resident in memory. *)

val stats : t -> stats

type cone_stats = { cone_key : string; cone_hits : int; cone_misses : int }

val attribution : ?top:int -> t -> cone_stats list
(** Per-cone hit/miss counts, most-hit first (ties by key). [?top] keeps
    only the first [n] rows. Answers "which cones is the cache actually
    earning on" — the CLI prints the head of this under [--deep-stats]. *)

val diags : t -> Step_lint.Diag.t list
(** Diagnostics accumulated while loading/storing disk entries, oldest
    first. Severities are [Warning]/[Info] only: a broken cache degrades
    to recomputation, it never fails a run. *)
