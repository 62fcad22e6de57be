module Json = Step_obs.Json
module Diag = Step_lint.Diag
module Gate = Step_core.Gate
module Method = Step_core.Method
module Partition = Step_core.Partition
module Certify = Step_core.Certify
module Config = Step_engine.Config
module Retry = Step_engine.Retry
module Engine = Step_engine.Engine
module Report = Step_engine.Report

let schema_version = 1

let code_malformed = "API001"

let code_version = "API002"

let code_unknown_type = "API003"

let code_field = "API004"

let code_unknown_field = "API005"

let code_bad_circuit = "SRV001"

let code_unknown_handle = "SRV002"

let code_admission = "SRV003"

let code_draining = "SRV004"

let code_config = "SRV005"

let code_deadline = "SRV006"

let code_internal = "SRV007"

(* ---------- parsing scaffolding ---------- *)

let ( let* ) = Result.bind

let fail code fmt =
  Printf.ksprintf (fun m -> Error (Diag.error ~code m)) fmt

let obj_fields ~what = function
  | Json.Obj kv -> Ok kv
  | _ -> fail code_field "%s must be a JSON object" what

(* Strict parsing: a field the schema does not define is a protocol
   error, not noise — silently ignoring it would let typos ("buget")
   change behaviour without a diagnostic. *)
let check_fields ~what allowed kv =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kv with
  | Some (k, _) -> fail code_unknown_field "%s: unknown field %S" what k
  | None -> Ok ()

let get k kv = Option.value ~default:Json.Null (List.assoc_opt k kv)

let string_field ~what k kv =
  match get k kv with
  | Json.String s -> Ok s
  | Json.Null -> fail code_field "%s: missing field %S" what k
  | _ -> fail code_field "%s: field %S must be a string" what k

let opt_string_field ~what k kv =
  match get k kv with
  | Json.Null -> Ok None
  | Json.String s -> Ok (Some s)
  | _ -> fail code_field "%s: field %S must be a string" what k

let opt_int_field ~what k kv =
  match get k kv with
  | Json.Null -> Ok None
  | j -> (
      match Json.to_int_opt j with
      | Some n -> Ok (Some n)
      | None -> fail code_field "%s: field %S must be an integer" what k)

let int_field ~default ~what k kv =
  let* v = opt_int_field ~what k kv in
  Ok (Option.value ~default v)

let opt_float_field ~what k kv =
  match get k kv with
  | Json.Null -> Ok None
  | j -> (
      match Json.to_float_opt j with
      | Some f -> Ok (Some f)
      | None -> fail code_field "%s: field %S must be a number" what k)

let float_field ~default ~what k kv =
  let* v = opt_float_field ~what k kv in
  Ok (Option.value ~default v)

let opt_bool_field ~what k kv =
  match get k kv with
  | Json.Null -> Ok None
  | Json.Bool b -> Ok (Some b)
  | _ -> fail code_field "%s: field %S must be a boolean" what k

let bool_field ~default ~what k kv =
  let* v = opt_bool_field ~what k kv in
  Ok (Option.value ~default v)

let check_version ~what kv =
  match get "schema_version" kv with
  | Json.Int v when v = schema_version -> Ok ()
  | Json.Int v ->
      fail code_version "%s: unsupported schema_version %d (this server speaks %d)"
        what v schema_version
  | Json.Null ->
      fail code_version "%s: missing schema_version (this server speaks %d)"
        what schema_version
  | _ -> fail code_version "%s: schema_version must be an integer" what

(* ---------- config patches ---------- *)

type source =
  | Inline of { format : string; text : string }
  | Handle of string

type config_patch = {
  gate : Gate.t option;
  method_ : Method.t option;
  per_po_budget : float option;
  total_budget : float option;
  min_support : int option;
  jobs : int option;
  retries : int option;
  fallback : Method.t list option;
  certify : bool option;
  cache : bool option;
  check_artifacts : bool option;
}

let empty_patch =
  {
    gate = None;
    method_ = None;
    per_po_budget = None;
    total_budget = None;
    min_support = None;
    jobs = None;
    retries = None;
    fallback = None;
    certify = None;
    cache = None;
    check_artifacts = None;
  }

let apply_patch p config =
  let app f v c = match v with None -> c | Some v -> f v c in
  config
  |> app Config.with_gate p.gate
  |> app Config.with_method p.method_
  |> app Config.with_per_po_budget p.per_po_budget
  |> app Config.with_total_budget p.total_budget
  |> app Config.with_min_support p.min_support
  |> app Config.with_jobs p.jobs
  |> app
       (fun r c ->
         Config.with_retry
           { Retry.default with Retry.max_attempts = r + 1 }
           c)
       p.retries
  |> app Config.with_fallback p.fallback
  |> app Config.with_certify p.certify
  |> app Config.with_check_artifacts p.check_artifacts
  |> fun c ->
  match p.cache with Some false -> Config.with_cache None c | _ -> c

let patch_keys =
  [
    "gate";
    "method";
    "per_po_budget";
    "total_budget";
    "min_support";
    "jobs";
    "retries";
    "fallback";
    "certify";
    "cache";
    "check_artifacts";
  ]

let patch_of_fields ~what kv =
  let* gate =
    match get "gate" kv with
    | Json.Null -> Ok None
    | Json.String s -> (
        match Gate.of_string_opt s with
        | Some g -> Ok (Some g)
        | None -> fail code_field "%s: unknown gate %S" what s)
    | _ -> fail code_field "%s: field \"gate\" must be a string" what
  in
  let* method_ =
    match get "method" kv with
    | Json.Null -> Ok None
    | Json.String s -> (
        match Method.of_string_opt s with
        | Some m -> Ok (Some m)
        | None -> fail code_field "%s: unknown method %S" what s)
    | _ -> fail code_field "%s: field \"method\" must be a string" what
  in
  let* per_po_budget = opt_float_field ~what "per_po_budget" kv in
  let* total_budget = opt_float_field ~what "total_budget" kv in
  let* min_support = opt_int_field ~what "min_support" kv in
  let* jobs = opt_int_field ~what "jobs" kv in
  let* retries = opt_int_field ~what "retries" kv in
  let* fallback =
    match get "fallback" kv with
    | Json.Null -> Ok None
    | Json.List l ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | Json.String s :: rest -> (
              match Method.of_string_opt s with
              | Some m -> go (m :: acc) rest
              | None -> fail code_field "%s: unknown fallback method %S" what s)
          | _ -> fail code_field "%s: fallback entries must be strings" what
        in
        go [] l
    | _ -> fail code_field "%s: field \"fallback\" must be a list" what
  in
  let* certify = opt_bool_field ~what "certify" kv in
  let* cache = opt_bool_field ~what "cache" kv in
  let* check_artifacts = opt_bool_field ~what "check_artifacts" kv in
  Ok
    {
      gate;
      method_;
      per_po_budget;
      total_budget;
      min_support;
      jobs;
      retries;
      fallback;
      certify;
      cache;
      check_artifacts;
    }

let patch_fields p =
  let add k v acc = match v with None -> acc | Some v -> (k, v) :: acc in
  []
  |> add "check_artifacts" (Option.map (fun b -> Json.Bool b) p.check_artifacts)
  |> add "cache" (Option.map (fun b -> Json.Bool b) p.cache)
  |> add "certify" (Option.map (fun b -> Json.Bool b) p.certify)
  |> add "fallback"
       (Option.map
          (fun ms ->
            Json.List (List.map (fun m -> Json.String (Method.to_string m)) ms))
          p.fallback)
  |> add "retries" (Option.map (fun n -> Json.Int n) p.retries)
  |> add "jobs" (Option.map (fun n -> Json.Int n) p.jobs)
  |> add "min_support" (Option.map (fun n -> Json.Int n) p.min_support)
  |> add "total_budget" (Option.map (fun f -> Json.Float f) p.total_budget)
  |> add "per_po_budget" (Option.map (fun f -> Json.Float f) p.per_po_budget)
  |> add "method" (Option.map (fun m -> Json.String (Method.to_string m)) p.method_)
  |> add "gate" (Option.map (fun g -> Json.String (Gate.to_string g)) p.gate)

(* ---------- requests ---------- *)

type request =
  | Upload of { id : string; name : string option; format : string; text : string }
  | Decompose of {
      id : string;
      source : source;
      po : int option;
      patch : config_patch;
    }
  | Get_stats of { id : string }
  | Drain of { id : string }
  | Sleep of { id : string; seconds : float }

let request_id = function
  | Upload { id; _ }
  | Decompose { id; _ }
  | Get_stats { id }
  | Drain { id }
  | Sleep { id; _ } ->
      id

let request_kind = function
  | Upload _ -> "upload"
  | Decompose _ -> "decompose"
  | Get_stats _ -> "stats"
  | Drain _ -> "drain"
  | Sleep _ -> "sleep"

let envelope kind id rest =
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: ("type", Json.String kind)
    :: ("id", Json.String id)
    :: rest)

let circuit_formats = [ "blif"; "aag" ]

let check_format ~what fmt =
  if List.mem fmt circuit_formats then Ok fmt
  else
    fail code_field "%s: unknown circuit format %S (expected blif or aag)" what
      fmt

let request_to_json r =
  match r with
  | Upload { id; name; format; text } ->
      envelope "upload" id
        ((match name with
         | None -> []
         | Some n -> [ ("name", Json.String n) ])
        @ [ ("format", Json.String format); ("text", Json.String text) ])
  | Decompose { id; source; po; patch } ->
      let source_fields =
        match source with
        | Handle h -> [ ("handle", Json.String h) ]
        | Inline { format; text } ->
            [
              ( "circuit",
                Json.Obj
                  [
                    ("format", Json.String format); ("text", Json.String text);
                  ] );
            ]
      in
      let po_fields =
        match po with None -> [] | Some i -> [ ("po", Json.Int i) ]
      in
      envelope "decompose" id (source_fields @ po_fields @ patch_fields patch)
  | Get_stats { id } -> envelope "stats" id []
  | Drain { id } -> envelope "drain" id []
  | Sleep { id; seconds } ->
      envelope "sleep" id [ ("seconds", Json.Float seconds) ]

let request_of_json j =
  let what = "request" in
  let* kv = obj_fields ~what j in
  let* () = check_version ~what kv in
  let* kind = string_field ~what "type" kv in
  let what = kind ^ " request" in
  let* id = string_field ~what "id" kv in
  let base_keys = [ "schema_version"; "type"; "id" ] in
  match kind with
  | "upload" ->
      let* () =
        check_fields ~what (base_keys @ [ "name"; "format"; "text" ]) kv
      in
      let* name = opt_string_field ~what "name" kv in
      let* format = string_field ~what "format" kv in
      let* format = check_format ~what format in
      let* text = string_field ~what "text" kv in
      Ok (Upload { id; name; format; text })
  | "decompose" ->
      let* () =
        check_fields ~what
          (base_keys @ [ "handle"; "circuit"; "po" ] @ patch_keys)
          kv
      in
      let* source =
        match (get "handle" kv, get "circuit" kv) with
        | Json.String h, Json.Null -> Ok (Handle h)
        | Json.Null, (Json.Obj _ as c) ->
            let cw = what ^ " circuit" in
            let* ckv = obj_fields ~what:cw c in
            let* () = check_fields ~what:cw [ "format"; "text" ] ckv in
            let* format = string_field ~what:cw "format" ckv in
            let* format = check_format ~what:cw format in
            let* text = string_field ~what:cw "text" ckv in
            Ok (Inline { format; text })
        | Json.Null, Json.Null ->
            fail code_field "%s: needs either \"handle\" or \"circuit\"" what
        | Json.Null, _ ->
            fail code_field "%s: field \"circuit\" must be an object" what
        | _, Json.Null ->
            fail code_field "%s: field \"handle\" must be a string" what
        | _, _ ->
            fail code_field "%s: \"handle\" and \"circuit\" are exclusive" what
      in
      let* po = opt_int_field ~what "po" kv in
      let* patch = patch_of_fields ~what kv in
      Ok (Decompose { id; source; po; patch })
  | "stats" ->
      let* () = check_fields ~what base_keys kv in
      Ok (Get_stats { id })
  | "drain" ->
      let* () = check_fields ~what base_keys kv in
      Ok (Drain { id })
  | "sleep" ->
      let* () = check_fields ~what (base_keys @ [ "seconds" ]) kv in
      let* seconds = float_field ~default:0.0 ~what "seconds" kv in
      Ok (Sleep { id; seconds })
  | other -> fail code_unknown_type "request: unknown type %S" other

let salvage_id line =
  match Json.of_string line with
  | j -> Json.to_string_opt (Json.member "id" j)
  | exception Failure _ -> None

let parse_request_line line =
  match Json.of_string line with
  | exception Failure msg ->
      Error (None, Diag.error ~code:code_malformed ("request: " ^ msg))
  | j -> (
      match request_of_json j with
      | Ok r -> Ok r
      | Error d -> Error (salvage_id line, d))

(* ---------- per-PO records ---------- *)

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
  status : string;
  method_name : string;
  attempts : int;
  xa : int;
  xb : int;
  xc : int;
  ed : float;
  eb : float;
  cpu_s : float;
  cache : string option;
  cert : cert_info option;
  degraded : bool;
  failure : failure_info option;
  counters : (string * int) list;
}

let po_record_of_result (r : Engine.po_result) =
  let xa, xb, xc, ed, eb =
    match r.Engine.partition with
    | None -> (0, 0, 0, nan, nan)
    | Some p ->
        ( List.length p.Partition.xa,
          List.length p.Partition.xb,
          List.length p.Partition.xc,
          Partition.disjointness p,
          Partition.balancedness p )
  in
  {
    po = r.Engine.po_name;
    support = r.Engine.support_size;
    decomposed = r.Engine.partition <> None;
    optimal = r.Engine.proven_optimal;
    timed_out = r.Engine.timed_out;
    status = Engine.po_status r;
    method_name = Method.to_string r.Engine.method_used;
    attempts = r.Engine.attempts;
    xa;
    xb;
    xc;
    ed;
    eb;
    cpu_s = r.Engine.cpu;
    cache =
      Option.map (fun hit -> if hit then "hit" else "miss") r.Engine.cache_hit;
    cert =
      Option.map
        (fun c ->
          {
            cert_ok = c.Certify.ok;
            proof_bytes = c.Certify.proof_bytes;
            cert_s = c.Certify.gen_s +. c.Certify.check_s;
          })
        r.Engine.certificate;
    degraded = r.Engine.degraded;
    failure =
      Option.map
        (fun (f : Engine.po_failure) ->
          {
            fail_error = f.Engine.error;
            fail_attempts = f.Engine.attempts;
            fail_transient = f.Engine.transient;
          })
        r.Engine.failure;
    counters = r.Engine.counters;
  }

let counters_json cs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)

let po_to_json p =
  let cache =
    match p.cache with None -> [] | Some s -> [ ("cache", Json.String s) ]
  in
  let cert =
    match p.cert with
    | None -> []
    | Some c ->
        [
          ("cert", Json.String (if c.cert_ok then "ok" else "FAIL"));
          ("cert_proof_bytes", Json.Int c.proof_bytes);
          ("cert_s", Json.Float c.cert_s);
        ]
  in
  let supervision =
    (if p.degraded then [ ("degraded", Json.Bool true) ] else [])
    @
    match p.failure with
    | None -> []
    | Some f ->
        [
          ( "failure",
            Json.Obj
              [
                ("error", Json.String f.fail_error);
                ("attempts", Json.Int f.fail_attempts);
                ("transient", Json.Bool f.fail_transient);
              ] );
        ]
  in
  Json.Obj
    ([
       ("po", Json.String p.po);
       ("support", Json.Int p.support);
       ("decomposed", Json.Bool p.decomposed);
       ("optimal", Json.Bool p.optimal);
       ("timed_out", Json.Bool p.timed_out);
       ("status", Json.String p.status);
       ("method", Json.String p.method_name);
       ("attempts", Json.Int p.attempts);
       ("xa", Json.Int p.xa);
       ("xb", Json.Int p.xb);
       ("xc", Json.Int p.xc);
       ("eD", Json.Float p.ed);
       ("eB", Json.Float p.eb);
       ("cpu_s", Json.Float p.cpu_s);
     ]
    @ cache @ cert @ supervision
    @ [ ("counters", counters_json p.counters) ])

let counters_of_json ~what k kv =
  match get k kv with
  | Json.Null -> Ok []
  | Json.Obj cs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (k, Json.Int v) :: rest -> go ((k, v) :: acc) rest
        | (k, _) :: _ ->
            fail code_field "%s: counter %S must be an integer" what k
      in
      go [] cs
  | _ -> fail code_field "%s: field %S must be an object" what k

(* [eD]/[eB] are [nan] for undecomposed rows, which the emitter renders
   as [null]; read that back as [nan] so the wire round-trip is exact. *)
let metric_field ~what k kv =
  match get k kv with
  | Json.Null -> Ok nan
  | j -> (
      match Json.to_float_opt j with
      | Some f -> Ok f
      | None -> fail code_field "%s: field %S must be a number" what k)

let po_keys =
  [
    "po";
    "support";
    "decomposed";
    "optimal";
    "timed_out";
    "status";
    "method";
    "attempts";
    "xa";
    "xb";
    "xc";
    "eD";
    "eB";
    "cpu_s";
    "cache";
    "cert";
    "cert_proof_bytes";
    "cert_s";
    "degraded";
    "failure";
    "counters";
  ]

let po_of_json j =
  let what = "po record" in
  let* kv = obj_fields ~what j in
  let* () = check_fields ~what po_keys kv in
  let* po = string_field ~what "po" kv in
  let* support = int_field ~default:0 ~what "support" kv in
  let* decomposed = bool_field ~default:false ~what "decomposed" kv in
  let* optimal = bool_field ~default:false ~what "optimal" kv in
  let* timed_out = bool_field ~default:false ~what "timed_out" kv in
  let* status = string_field ~what "status" kv in
  let* method_name = string_field ~what "method" kv in
  let* attempts = int_field ~default:1 ~what "attempts" kv in
  let* xa = int_field ~default:0 ~what "xa" kv in
  let* xb = int_field ~default:0 ~what "xb" kv in
  let* xc = int_field ~default:0 ~what "xc" kv in
  let* ed = metric_field ~what "eD" kv in
  let* eb = metric_field ~what "eB" kv in
  let* cpu_s = float_field ~default:0.0 ~what "cpu_s" kv in
  let* cache = opt_string_field ~what "cache" kv in
  let* cert =
    match get "cert" kv with
    | Json.Null -> Ok None
    | Json.String s ->
        let* proof_bytes = int_field ~default:0 ~what "cert_proof_bytes" kv in
        let* cert_s = float_field ~default:0.0 ~what "cert_s" kv in
        Ok (Some { cert_ok = s = "ok"; proof_bytes; cert_s })
    | _ -> fail code_field "%s: field \"cert\" must be a string" what
  in
  let* degraded = bool_field ~default:false ~what "degraded" kv in
  let* failure =
    match get "failure" kv with
    | Json.Null -> Ok None
    | Json.Obj _ as f ->
        let fw = what ^ " failure" in
        let* fkv = obj_fields ~what:fw f in
        let* () = check_fields ~what:fw [ "error"; "attempts"; "transient" ] fkv in
        let* fail_error = string_field ~what:fw "error" fkv in
        let* fail_attempts = int_field ~default:1 ~what:fw "attempts" fkv in
        let* fail_transient = bool_field ~default:false ~what:fw "transient" fkv in
        Ok (Some { fail_error; fail_attempts; fail_transient })
    | _ -> fail code_field "%s: field \"failure\" must be an object" what
  in
  let* counters = counters_of_json ~what "counters" kv in
  Ok
    {
      po;
      support;
      decomposed;
      optimal;
      timed_out;
      status;
      method_name;
      attempts;
      xa;
      xb;
      xc;
      ed;
      eb;
      cpu_s;
      cache;
      cert;
      degraded;
      failure;
      counters;
    }

(* ---------- run summaries ---------- *)

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

let summary_of_result (r : Engine.circuit_result) =
  let a = Report.aggregate_of r in
  let cache_hits, cache_misses = Report.cache_counts r in
  let cert_checked, cert_failed = Report.cert_counts r in
  let cert_proof_bytes, cert_s = Report.cert_totals r in
  {
    circuit = r.Engine.circuit_name;
    s_method = Method.to_string r.Engine.method_used;
    gate = Gate.to_string r.Engine.gate_used;
    n_outputs = Array.length r.Engine.per_po;
    n_decomposed = r.Engine.n_decomposed;
    n_failed = a.Report.n_failed;
    n_degraded = a.Report.n_degraded;
    cache_hits;
    cache_misses;
    cert_checked;
    cert_failed;
    cert_proof_bytes;
    cert_s;
    total_cpu_s = r.Engine.total_cpu;
    counters = Report.counters_of r;
  }

(* Zero-valued optional groups are elided, mirroring the report columns:
   a cache-less / cert-less / failure-free document looks exactly as it
   did before those features existed. *)
let summary_fields s =
  [
    ("circuit", Json.String s.circuit);
    ("method", Json.String s.s_method);
    ("gate", Json.String s.gate);
    ("n_outputs", Json.Int s.n_outputs);
    ("n_decomposed", Json.Int s.n_decomposed);
    ("total_cpu_s", Json.Float s.total_cpu_s);
  ]
  @ (if s.n_failed > 0 then [ ("n_failed", Json.Int s.n_failed) ] else [])
  @ (if s.n_degraded > 0 then [ ("n_degraded", Json.Int s.n_degraded) ] else [])
  @ (if s.cache_hits = 0 && s.cache_misses = 0 then []
     else
       [
         ("cache_hits", Json.Int s.cache_hits);
         ("cache_misses", Json.Int s.cache_misses);
       ])
  @ (if s.cert_checked = 0 && s.cert_failed = 0 then []
     else
       [
         ("cert_checked", Json.Int s.cert_checked);
         ("cert_failed", Json.Int s.cert_failed);
         ("cert_proof_bytes", Json.Int s.cert_proof_bytes);
         ("cert_s", Json.Float s.cert_s);
       ])
  @ [ ("counters", counters_json s.counters) ]

let summary_keys =
  [
    "circuit";
    "method";
    "gate";
    "n_outputs";
    "n_decomposed";
    "total_cpu_s";
    "n_failed";
    "n_degraded";
    "cache_hits";
    "cache_misses";
    "cert_checked";
    "cert_failed";
    "cert_proof_bytes";
    "cert_s";
    "counters";
  ]

let summary_of_json j =
  let what = "run summary" in
  let* kv = obj_fields ~what j in
  let* () = check_fields ~what summary_keys kv in
  let* circuit = string_field ~what "circuit" kv in
  let* s_method = string_field ~what "method" kv in
  let* gate = string_field ~what "gate" kv in
  let* n_outputs = int_field ~default:0 ~what "n_outputs" kv in
  let* n_decomposed = int_field ~default:0 ~what "n_decomposed" kv in
  let* total_cpu_s = float_field ~default:0.0 ~what "total_cpu_s" kv in
  let* n_failed = int_field ~default:0 ~what "n_failed" kv in
  let* n_degraded = int_field ~default:0 ~what "n_degraded" kv in
  let* cache_hits = int_field ~default:0 ~what "cache_hits" kv in
  let* cache_misses = int_field ~default:0 ~what "cache_misses" kv in
  let* cert_checked = int_field ~default:0 ~what "cert_checked" kv in
  let* cert_failed = int_field ~default:0 ~what "cert_failed" kv in
  let* cert_proof_bytes = int_field ~default:0 ~what "cert_proof_bytes" kv in
  let* cert_s = float_field ~default:0.0 ~what "cert_s" kv in
  let* counters = counters_of_json ~what "counters" kv in
  Ok
    {
      circuit;
      s_method;
      gate;
      n_outputs;
      n_decomposed;
      n_failed;
      n_degraded;
      cache_hits;
      cache_misses;
      cert_checked;
      cert_failed;
      cert_proof_bytes;
      cert_s;
      total_cpu_s;
      counters;
    }

let run_to_json (r : Engine.circuit_result) =
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: summary_fields (summary_of_result r)
    @ [
        ( "per_po",
          Json.List
            (Array.to_list
               (Array.map
                  (fun po -> po_to_json (po_record_of_result po))
                  r.Engine.per_po)) );
      ])

(* ---------- responses ---------- *)

type cache_stats = { hits : int; misses : int; entries : int }

type server_stats = {
  requests : int;
  rejected : int;
  inflight : int;
  handles : int;
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
  | Result of { id : string; summary : run_summary }
  | Server_stats of { id : string; stats : server_stats }
  | Draining of { id : string }
  | Sleeping of { id : string }
  | Slept of { id : string; seconds : float }
  | Error of { id : string option; code : string; message : string }

let response_to_json = function
  | Uploaded { id; handle; circuit; n_inputs; n_outputs; n_and } ->
      envelope "uploaded" id
        [
          ("handle", Json.String handle);
          ("circuit", Json.String circuit);
          ("n_inputs", Json.Int n_inputs);
          ("n_outputs", Json.Int n_outputs);
          ("n_and", Json.Int n_and);
        ]
  | Po { id; record } -> envelope "po" id [ ("record", po_to_json record) ]
  | Result { id; summary } ->
      envelope "result" id [ ("summary", Json.Obj (summary_fields summary)) ]
  | Server_stats { id; stats } ->
      envelope "stats" id
        ([
           ("requests", Json.Int stats.requests);
           ("rejected", Json.Int stats.rejected);
           ("inflight", Json.Int stats.inflight);
           ("handles", Json.Int stats.handles);
         ]
        @
        match stats.cache with
        | None -> []
        | Some c ->
            [
              ( "cache",
                Json.Obj
                  [
                    ("hits", Json.Int c.hits);
                    ("misses", Json.Int c.misses);
                    ("entries", Json.Int c.entries);
                  ] );
            ])
  | Draining { id } -> envelope "draining" id []
  | Sleeping { id } -> envelope "sleeping" id []
  | Slept { id; seconds } ->
      envelope "slept" id [ ("seconds", Json.Float seconds) ]
  | Error { id; code; message } ->
      Json.Obj
        (("schema_version", Json.Int schema_version)
        :: ("type", Json.String "error")
        :: (match id with
           | None -> []
           | Some id -> [ ("id", Json.String id) ])
        @ [ ("code", Json.String code); ("message", Json.String message) ])

let response_of_json j =
  let what = "response" in
  let* kv = obj_fields ~what j in
  let* () = check_version ~what kv in
  let* kind = string_field ~what "type" kv in
  let what = kind ^ " response" in
  let base_keys = [ "schema_version"; "type"; "id" ] in
  let with_id k = Result.bind (string_field ~what "id" kv) k in
  match kind with
  | "uploaded" ->
      let* () =
        check_fields ~what
          (base_keys @ [ "handle"; "circuit"; "n_inputs"; "n_outputs"; "n_and" ])
          kv
      in
      with_id @@ fun id ->
      let* handle = string_field ~what "handle" kv in
      let* circuit = string_field ~what "circuit" kv in
      let* n_inputs = int_field ~default:0 ~what "n_inputs" kv in
      let* n_outputs = int_field ~default:0 ~what "n_outputs" kv in
      let* n_and = int_field ~default:0 ~what "n_and" kv in
      Ok (Uploaded { id; handle; circuit; n_inputs; n_outputs; n_and })
  | "po" ->
      let* () = check_fields ~what (base_keys @ [ "record" ]) kv in
      with_id @@ fun id ->
      let* record = po_of_json (get "record" kv) in
      Ok (Po { id; record })
  | "result" ->
      let* () = check_fields ~what (base_keys @ [ "summary" ]) kv in
      with_id @@ fun id ->
      let* summary = summary_of_json (get "summary" kv) in
      Ok (Result { id; summary })
  | "stats" ->
      let* () =
        check_fields ~what
          (base_keys @ [ "requests"; "rejected"; "inflight"; "handles"; "cache" ])
          kv
      in
      with_id @@ fun id ->
      let* requests = int_field ~default:0 ~what "requests" kv in
      let* rejected = int_field ~default:0 ~what "rejected" kv in
      let* inflight = int_field ~default:0 ~what "inflight" kv in
      let* handles = int_field ~default:0 ~what "handles" kv in
      let* cache =
        match get "cache" kv with
        | Json.Null -> Ok None
        | Json.Obj _ as c ->
            let cw = what ^ " cache" in
            let* ckv = obj_fields ~what:cw c in
            let* () = check_fields ~what:cw [ "hits"; "misses"; "entries" ] ckv in
            let* hits = int_field ~default:0 ~what:cw "hits" ckv in
            let* misses = int_field ~default:0 ~what:cw "misses" ckv in
            let* entries = int_field ~default:0 ~what:cw "entries" ckv in
            Ok (Some { hits; misses; entries })
        | _ -> fail code_field "%s: field \"cache\" must be an object" what
      in
      Ok (Server_stats { id; stats = { requests; rejected; inflight; handles; cache } })
  | "draining" ->
      let* () = check_fields ~what base_keys kv in
      with_id @@ fun id -> Ok (Draining { id })
  | "sleeping" ->
      let* () = check_fields ~what base_keys kv in
      with_id @@ fun id -> Ok (Sleeping { id })
  | "slept" ->
      let* () = check_fields ~what (base_keys @ [ "seconds" ]) kv in
      with_id @@ fun id ->
      let* seconds = float_field ~default:0.0 ~what "seconds" kv in
      Ok (Slept { id; seconds })
  | "error" ->
      let* () = check_fields ~what (base_keys @ [ "code"; "message" ]) kv in
      let* id = opt_string_field ~what "id" kv in
      let* code = string_field ~what "code" kv in
      let* message = string_field ~what "message" kv in
      Ok (Error { id; code; message })
  | other -> fail code_unknown_type "response: unknown type %S" other

let error_of_diag ?id d =
  Error { id; code = d.Diag.code; message = d.Diag.message }
