(** Versioned request/response API for the decomposition service.

    One wire vocabulary for everything that leaves the engine as JSON:
    the [step serve] protocol (JSON-lines, one message per line), the
    [step report -f json] document and the bench harness's
    [run_*.json] snapshots all speak the records defined here, each
    stamped with {!schema_version}. Parsing is total and strict — every
    malformed message maps to a {!Step_lint.Diag.t} with a stable
    [API*]/[SRV*] code instead of an exception — and
    [of_json (to_json x)] is the identity at the wire level (byte-equal
    re-rendering), so clients can round-trip messages they do not fully
    understand only by rejecting them.

    Decompose requests carry a {!config_patch}: a partial
    {!Step_engine.Config.t} applied onto the server's base configuration
    through the existing [Config.with_*] builders ({!apply_patch}).
    See docs/SERVER.md for the protocol. *)

val schema_version : int
(** Version of the wire format, [1]. Every message carries it as a
    [schema_version] field; requests with a different (or missing)
    version are rejected with {!code_version}. *)

(** {1 Error codes}

    Stable {!Step_lint.Diag} codes. [API*] codes are protocol-level
    (the message itself is bad); [SRV*] codes are server-level (the
    message is well-formed but the server cannot or will not act). *)

val code_malformed : string
(** [API001] — the line is not valid JSON. *)

val code_version : string
(** [API002] — missing or unsupported [schema_version]. *)

val code_unknown_type : string
(** [API003] — unknown request [type]. *)

val code_field : string
(** [API004] — missing, ill-typed or out-of-range field. *)

val code_unknown_field : string
(** [API005] — a field the schema does not define (strict parsing). *)

val code_bad_circuit : string
(** [SRV001] — an inline circuit failed to parse. *)

val code_unknown_handle : string
(** [SRV002] — a [handle] no [upload] produced. *)

val code_admission : string
(** [SRV003] — admission control rejected the request (the server's
    in-flight job slots are exhausted, or the request alone wants more
    than the server admits). *)

val code_draining : string
(** [SRV004] — the server is draining and accepts no new work. *)

val code_config : string
(** [SRV005] — the patched configuration failed
    [Step_engine.Config.validate]. *)

val code_deadline : string
(** [SRV006] — a requested budget exceeds the server's per-request
    deadline cap. *)

val code_internal : string
(** [SRV007] — the request crashed server-side; the connection
    survives. *)

(** {1 Requests} *)

type source =
  | Inline of { format : string; text : string }
      (** A circuit shipped in the request; [format] is ["blif"] or
          ["aag"]. *)
  | Handle of string  (** A circuit uploaded earlier. *)

type config_patch = {
  gate : Step_core.Gate.t option;
  method_ : Step_core.Method.t option;
  per_po_budget : float option;
  total_budget : float option;
  min_support : int option;
  jobs : int option;
  retries : int option;  (** Maps to [Retry.max_attempts = retries + 1]. *)
  fallback : Step_core.Method.t list option;
  certify : bool option;
  cache : bool option;
      (** [Some false] detaches the server's shared cache for this
          request; [Some true]/[None] keep it. *)
  check_artifacts : bool option;
}
(** A partial {!Step_engine.Config.t}: [None] fields inherit the
    server's base configuration. *)

val empty_patch : config_patch

val apply_patch : config_patch -> Step_engine.Config.t -> Step_engine.Config.t
(** Applies the set fields onto a base configuration through the
    [Config.with_*] builders. Does not validate — callers run
    [Config.validate] and map failures to {!code_config}. *)

type request =
  | Upload of { id : string; name : string option; format : string; text : string }
  | Decompose of {
      id : string;
      source : source;
      po : int option;  (** Restrict to one output index. *)
      patch : config_patch;
    }
  | Get_stats of { id : string }
  | Drain of { id : string }
  | Sleep of { id : string; seconds : float }
      (** Diagnostics: hold an in-flight slot for [seconds]. Exists so
          drain semantics are scriptable (cf. Redis [DEBUG SLEEP]). *)

val request_id : request -> string

val request_kind : request -> string
(** The wire [type] field: ["upload"], ["decompose"], ["stats"],
    ["drain"], ["sleep"]. *)

val request_to_json : request -> Step_obs.Json.t

val request_of_json : Step_obs.Json.t -> (request, Step_lint.Diag.t) result
(** Strict: unknown fields, wrong versions and ill-typed fields are
    diagnosed, never ignored. *)

val parse_request_line :
  string -> (request, string option * Step_lint.Diag.t) result
(** {!request_of_json} over one JSON line. On error the salvaged request
    [id] (when the line parsed far enough to have one) rides along so
    the error response can be correlated. *)

(** {1 Per-PO records}

    The one JSON shape for a per-output decomposition result. *)

type cert_info = { cert_ok : bool; proof_bytes : int; cert_s : float }

type failure_info = {
  fail_error : string;
  fail_attempts : int;
  fail_transient : bool;
}

type po_record = {
  po : string;
  support : int;
  decomposed : bool;
  optimal : bool;
  timed_out : bool;
  status : string;  (** {!Step_engine.Engine.po_status} vocabulary. *)
  method_name : string;
  attempts : int;
  xa : int;
  xb : int;
  xc : int;
  ed : float;  (** [nan] (wire [null]) when not decomposed. *)
  eb : float;
  cpu_s : float;
  cache : string option;  (** ["hit"] / ["miss"]; [None] without a cache. *)
  cert : cert_info option;
  degraded : bool;
  failure : failure_info option;
  counters : (string * int) list;
}

val po_record_of_result : Step_engine.Engine.po_result -> po_record

val po_to_json : po_record -> Step_obs.Json.t

val po_of_json : Step_obs.Json.t -> (po_record, Step_lint.Diag.t) result

(** {1 Run summaries} *)

type run_summary = {
  circuit : string;
  s_method : string;
  gate : string;
  n_outputs : int;
  n_decomposed : int;
  n_failed : int;
  n_degraded : int;
  cache_hits : int;
  cache_misses : int;
  cert_checked : int;
  cert_failed : int;
  cert_proof_bytes : int;
  cert_s : float;
  total_cpu_s : float;
  counters : (string * int) list;
}

val summary_of_result : Step_engine.Engine.circuit_result -> run_summary

val summary_fields : run_summary -> (string * Step_obs.Json.t) list
(** The summary as ordered JSON fields (zero-valued optional groups are
    elided, as the cache/cert report columns are). No [schema_version] —
    the envelope carries it. *)

val summary_of_json : Step_obs.Json.t -> (run_summary, Step_lint.Diag.t) result

val run_to_json : Step_engine.Engine.circuit_result -> Step_obs.Json.t
(** The whole-run document: [schema_version], the summary fields, and a
    [per_po] array of {!po_to_json} records. This is what
    [step report -f json] prints and what [bench_out/run_*.json] embeds
    per run. *)

(** {1 Responses} *)

type cache_stats = { hits : int; misses : int; entries : int }

type server_stats = {
  requests : int;  (** Requests handled, all types. *)
  rejected : int;  (** Error responses emitted. *)
  inflight : int;  (** Job slots currently reserved. *)
  handles : int;  (** Uploaded circuits held. *)
  cache : cache_stats option;
}

type response =
  | Uploaded of {
      id : string;
      handle : string;
      circuit : string;
      n_inputs : int;
      n_outputs : int;
      n_and : int;
    }
  | Po of { id : string; record : po_record }
      (** Streamed, one per primary output, before {!Result}. *)
  | Result of { id : string; summary : run_summary }
  | Server_stats of { id : string; stats : server_stats }
  | Draining of { id : string }
  | Sleeping of { id : string }
  | Slept of { id : string; seconds : float }
  | Error of { id : string option; code : string; message : string }

val response_to_json : response -> Step_obs.Json.t

val response_of_json : Step_obs.Json.t -> (response, Step_lint.Diag.t) result

val error_of_diag : ?id:string -> Step_lint.Diag.t -> response
(** Structured error response carrying the diagnostic's code and
    message. *)
