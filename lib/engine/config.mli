(** Engine run configuration: everything a decomposition session depends
    on, in one validated record.

    Build one with record update syntax or the [with_*] builders
    (pipeline-friendly argument order):

    {[
      let config =
        Config.default
        |> Config.with_method Step_core.Method.Qd
        |> Config.with_jobs 4
    ]}

    [Engine.create] validates the configuration and rejects invalid ones
    ([jobs < 1], negative budgets); call {!validate} yourself for a
    non-raising check (the CLI does, to render a clean error). *)

type t = {
  gate : Step_core.Gate.t;  (** Gate of the decomposition (default OR). *)
  method_ : Step_core.Method.t;  (** Partitioning method (default QD). *)
  per_po_budget : float;  (** Seconds per primary output (default 10). *)
  total_budget : float;
      (** Seconds for the whole run (default 6000, the paper's circuit
          timeout). Outputs not reached before it expires are reported
          as timed out; running jobs are cancelled cooperatively. *)
  min_support : int;
      (** Outputs with fewer support variables are reported as not
          decomposable without solving (default 2; values below 2 are
          clamped to 2 at decomposition time). *)
  check_artifacts : bool;
      (** Lint the input AIG and every produced partition (default off). *)
  jobs : int;
      (** Worker domains decomposing primary outputs in parallel
          (default 1 = sequential, in the calling domain). Results are
          deterministic and identically ordered regardless of [jobs]. *)
  retry : Retry.policy;
      (** Supervision policy for per-output jobs: transient failures
          (disk races, resource pressure, injected [!transient] faults)
          are retried with seeded jittered backoff; deterministic
          failures never are. Default {!Retry.default}. *)
  fallback : Step_core.Method.t list;
      (** Degradation ladder: when a job fails (or times out with no
          partition), the output is re-run with these methods in order
          and the first usable result is kept, marked [degraded].
          Default []. Parse CLI specs with {!fallback_of_string}. *)
  cache : Step_cache.Cache.t option;
      (** Decomposition cache consulted before solving each output cone
          (default [None] = every cone is solved). One cache may be
          shared across runs, engines and worker domains; see
          {!Step_cache.Cache} for the keying and persistence contract. *)
  certify : bool;
      (** Produce a proof-carrying certificate for every reported answer
          ({!Step_core.Certify}) and re-validate it with the independent
          checker before reporting (default off — certification re-solves
          each answer with proof logging on, roughly doubling solve
          cost). Under the auto gate only the kept gate is certified.
          Certificates ride along with cache entries with their checked
          summaries, which hits reuse, and are re-checked on every disk
          rehydration. A result keeps only the checked summary; the
          certificate itself is written to [cert_dir] or dropped. *)
  cert_dir : string option;
      (** Directory (created by [Engine.create]) where each output's
          certificate is saved as [<po>.cert.json]
          ({!Step_cert.Cert.file}) once its row is final, so [-g auto]
          saves only the kept gate's. Needs [certify] (default [None]). *)
}

val default : t

val validate : t -> (t, string) result
(** [Ok] with the config itself, or [Error msg] naming the offending
    field. Rejects [jobs < 1], NaN/negative budgets, negative
    [min_support], a [cert_dir] without [certify], invalid retry
    policies ({!Retry.validate}) and ladders repeating a method. *)

val fallback_of_string : string -> (Step_core.Method.t list, string) result
(** Parse a CLI ladder spec: method names separated by ['>'], e.g.
    ["qdb>qb>mg"] — any spelling {!Step_core.Method.of_string} takes.
    Rejects empty ladders, unknown names, and repeats. *)

val with_gate : Step_core.Gate.t -> t -> t

val with_method : Step_core.Method.t -> t -> t

val with_per_po_budget : float -> t -> t

val with_total_budget : float -> t -> t

val with_min_support : int -> t -> t

val with_check_artifacts : bool -> t -> t

val with_jobs : int -> t -> t

val with_retry : Retry.policy -> t -> t

val with_fallback : Step_core.Method.t list -> t -> t

val with_cache : Step_cache.Cache.t option -> t -> t

val with_certify : bool -> t -> t

val with_cert_dir : string option -> t -> t
