module Gate = Step_core.Gate
module Method = Step_core.Method

type t = {
  gate : Gate.t;
  method_ : Method.t;
  per_po_budget : float;
  total_budget : float;
  min_support : int;
  check_artifacts : bool;
  jobs : int;
  retry : Retry.policy;
  fallback : Method.t list;
  cache : Step_cache.Cache.t option;
  certify : bool;
  cert_dir : string option;
}

let default =
  {
    gate = Gate.Or_gate;
    method_ = Method.Qd;
    per_po_budget = 10.0;
    total_budget = 6000.0;
    min_support = 2;
    check_artifacts = false;
    jobs = 1;
    retry = Retry.default;
    fallback = [];
    cache = None;
    certify = false;
    cert_dir = None;
  }

(* "qdb>qb>mg": the degradation ladder, cheapest method last. A leading
   rung equal to the primary method is tolerated (people write the full
   ladder including the method they configured) and dropped at run
   time. *)
let fallback_of_string text =
  let names =
    String.split_on_char '>' text |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  if names = [] then Error "empty fallback ladder"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match Method.of_string_opt n with
          | Some m ->
              if List.mem m acc then
                Error (Printf.sprintf "fallback ladder repeats %S" n)
              else go (m :: acc) rest
          | None -> Error (Printf.sprintf "unknown fallback method %S" n))
    in
    go [] names

let validate c =
  if c.jobs < 1 then
    Error (Printf.sprintf "jobs must be >= 1 (got %d)" c.jobs)
  else if Float.is_nan c.per_po_budget || c.per_po_budget < 0.0 then
    Error "per_po_budget must be non-negative"
  else if Float.is_nan c.total_budget || c.total_budget < 0.0 then
    Error "total_budget must be non-negative"
  else if c.min_support < 0 then
    Error (Printf.sprintf "min_support must be >= 0 (got %d)" c.min_support)
  else if c.cert_dir <> None && not c.certify then
    Error "cert_dir needs certify"
  else
    match Retry.validate c.retry with
    | Error msg -> Error msg
    | Ok _ ->
        let rec dup = function
          | [] -> None
          | m :: rest -> if List.mem m rest then Some m else dup rest
        in
        (match dup c.fallback with
        | Some m ->
            Error
              (Printf.sprintf "fallback ladder repeats %s" (Method.to_string m))
        | None -> Ok c)

let with_gate gate c = { c with gate }

let with_method method_ c = { c with method_ }

let with_per_po_budget per_po_budget c = { c with per_po_budget }

let with_total_budget total_budget c = { c with total_budget }

let with_min_support min_support c = { c with min_support }

let with_check_artifacts check_artifacts c = { c with check_artifacts }

let with_jobs jobs c = { c with jobs }

let with_retry retry c = { c with retry }

let with_fallback fallback c = { c with fallback }

let with_cache cache c = { c with cache }

let with_certify certify c = { c with certify }

let with_cert_dir cert_dir c = { c with cert_dir }
