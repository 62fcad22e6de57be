(* Shared data collection for the experiment tables: runs every method on
   every benchmark circuit once per gate and caches the results, since
   Tables I-IV all read the same OR runs. *)

module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Engine = Step_engine.Engine
module Config = Step_engine.Config
module Method = Step_core.Method

type config = {
  per_po_budget : float;
  scale : float;
  quick : bool; (* restrict circuit list for smoke runs *)
  jobs : int; (* worker domains per circuit run *)
  cache : bool; (* memoize per-PO decompositions by canonical cone *)
  cache_dir : string option; (* persist cache entries across bench runs *)
  certify : bool; (* generate+check proof certificates for every answer *)
}

(* 0.5 s per output keeps a full regeneration of all tables, the figure
   and the ablations in the ten-minute range; pass --budget to push the
   solved-percentages of Table IV toward saturation. *)
let default_config =
  {
    per_po_budget = 0.5;
    scale = 1.0;
    quick = false;
    jobs = 1;
    cache = false;
    cache_dir = None;
    certify = false;
  }

let all_methods =
  [ Method.Ljh; Method.Mg; Method.Qd; Method.Qb; Method.Qdb ]

let qbf_methods = [ Method.Qd; Method.Qb; Method.Qdb ]

type key = { circuit : string; gate : Gate.t; method_ : Method.t }

let cache : (key, Engine.circuit_result) Hashtbl.t = Hashtbl.create 64

(* The engine-level decomposition cache (canonical cone memoization) is
   distinct from the result cache above: one instance shared by every run
   of a bench invocation, created lazily on first --cache use. *)
module Dcache = Step_cache.Cache

let deco_cache : Dcache.t option ref = ref None

let deco_cache_of config =
  if not (config.cache || config.cache_dir <> None) then None
  else
    match !deco_cache with
    | Some c -> Some c
    | None ->
        let c = Dcache.create ?dir:config.cache_dir () in
        deco_cache := Some c;
        Some c

type stats = { n_in : int; inm : int; n_out : int }

let circuits_cache : (float * bool, Circuit.t list) Hashtbl.t =
  Hashtbl.create 4

let stats_cache : (string, stats) Hashtbl.t = Hashtbl.create 32

let circuits config =
  let key = (config.scale, config.quick) in
  match Hashtbl.find_opt circuits_cache key with
  | Some l -> l
  | None ->
      let l = Step_circuits.Suite.table1_suite ~scale:config.scale () in
      let l =
        if config.quick then
          List.filteri (fun i _ -> i >= List.length l - 6) l (* smallest *)
        else l
      in
      (* snapshot statistics before any solver pollutes the managers with
         copy inputs *)
      List.iter
        (fun c ->
          Hashtbl.replace stats_cache c.Circuit.name
            {
              n_in = Circuit.n_inputs c;
              inm = Circuit.max_support c;
              n_out = Circuit.n_outputs c;
            })
        l;
      Hashtbl.replace circuits_cache key l;
      l

let stats_of name = Hashtbl.find stats_cache name

let run config circuit gate method_ =
  let key = { circuit = circuit.Circuit.name; gate; method_ } in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let engine_config =
        {
          Config.default with
          Config.gate;
          method_;
          per_po_budget = config.per_po_budget;
          jobs = config.jobs;
          cache = deco_cache_of config;
          certify = config.certify;
        }
      in
      let r = Engine.run (Engine.create ~config:engine_config circuit) in
      Hashtbl.replace cache key r;
      r

(* A fresh run outside the result cache: sequential, no decomposition
   cache — the budget sweep's tighter rows. *)
let fresh ~per_po_budget circuit gate method_ =
  let config = { Config.default with Config.gate; method_; per_po_budget } in
  Engine.run (Engine.create ~config circuit)

(* Machine-readable snapshot of every cached run so far, one file per
   artifact: bench_out/run_<artifact>.json *)
let dump_json config ~dir ~artifact =
  let module J = Step_obs.Json in
  let results =
    Hashtbl.fold (fun _ r acc -> r :: acc) cache []
    |> List.sort (fun (a : Engine.circuit_result) b ->
           compare
             ( a.Engine.circuit_name,
               Method.to_string a.Engine.method_used,
               Gate.to_string a.Engine.gate_used )
             ( b.Engine.circuit_name,
               Method.to_string b.Engine.method_used,
               Gate.to_string b.Engine.gate_used ))
  in
  let cache_hits, cache_misses, cache_entries =
    match !deco_cache with
    | Some c ->
        let s = Dcache.stats c in
        (s.Dcache.hits, s.Dcache.misses, s.Dcache.entries)
    | None -> (0, 0, 0)
  in
  (* certification overhead summed over every cached run *)
  let cert_checked, cert_failed, cert_bytes, cert_s =
    List.fold_left
      (fun (ck, fl, by, s) r ->
        let c, f = Step_engine.Report.cert_counts r in
        let b, t = Step_engine.Report.cert_totals r in
        (ck + c, fl + f, by + b, s +. t))
      (0, 0, 0, 0.0) results
  in
  let j =
    J.Obj
      [
        ("schema_version", J.Int Step_api.Api.schema_version);
        ("artifact", J.String artifact);
        ( "config",
          J.Obj
            [
              ("per_po_budget_s", J.Float config.per_po_budget);
              ("scale", J.Float config.scale);
              ("quick", J.Bool config.quick);
              ("jobs", J.Int config.jobs);
              ("cache", J.Bool (config.cache || config.cache_dir <> None));
              ("certify", J.Bool config.certify);
            ] );
        ("cache_hits", J.Int cache_hits);
        ("cache_misses", J.Int cache_misses);
        ("cache_entries", J.Int cache_entries);
        ("cert_checked", J.Int cert_checked);
        ("cert_failed", J.Int cert_failed);
        ("cert_proof_bytes", J.Int cert_bytes);
        ("cert_s", J.Float cert_s);
        ("runs", J.List (List.map Step_api.Api.run_to_json results));
      ]
  in
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = Filename.concat dir (Printf.sprintf "run_%s.json" artifact) in
  (* temp file + rename in the same directory: an interrupted or crashed
     run never leaves a truncated run_*.json behind *)
  let tmp = Filename.temp_file ~temp_dir:dir "run-" ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (J.to_string j);
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp file;
  Printf.printf "wrote %s\n%!" file

(* per-PO metric comparison between a QBF method and a baseline: counts
   (better, equal, comparable) over POs decomposed by both *)
let compare_metric (metric : Partition.t -> float) (challenger : Engine.circuit_result)
    (baseline : Engine.circuit_result) =
  let better = ref 0 and equal = ref 0 and total = ref 0 in
  Array.iteri
    (fun i cr ->
      let br = baseline.Engine.per_po.(i) in
      match (cr.Engine.partition, br.Engine.partition) with
      | Some cp, Some bp ->
          incr total;
          let mc = metric cp and mb = metric bp in
          if mc < mb -. 1e-9 then incr better
          else if Float.abs (mc -. mb) <= 1e-9 then incr equal
      | _, _ -> ())
    challenger.Engine.per_po;
  (!better, !equal, !total)

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let metric_disjointness p = Partition.disjointness p

let metric_balancedness p = Partition.balancedness p

let metric_sum p = Partition.disjointness p +. Partition.balancedness p
