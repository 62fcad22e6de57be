(* One measured run of one workload: set-up, a closed loop of whole
   passes over the workload's ops (one client, one op in flight), the
   answer check, and the metrics. Untraced passes give the end-to-end
   metrics; with [trace] every other pass runs under a span collector and
   gives the per-layer ones. *)

module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Method = Step_core.Method
module Problem = Step_core.Problem
module Qbf_export = Step_core.Qbf_export
module Qdimacs = Step_qbf.Qdimacs
module Config = Step_engine.Config
module Engine = Step_engine.Engine
module Cache = Step_cache.Cache
module Obs = Step_obs.Obs
module Profile = Step_obs.Profile
module Metrics = Step_obs.Metrics
module Clock = Step_obs.Clock
module Json = Step_obs.Json
module W = Workload

(* ---------- metric names ---------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("peak_rss_mb", "MB");
    ("n_decomposed", "count");
    ("total_cost", "count");
  ]

(* Per-layer times are shares of the traced op time, so a layer that a
   workload never enters reads 0 on it. *)
let time_layers =
  [
    "sat.verify";
    "sat.abstraction";
    "qbf.query";
    "qbf.optimize";
    "mg.find";
    "mg.mus";
    "ljh.find";
    "qdimacs.export";
    "qdimacs.parse";
    "cegar.solve";
    "cache.extract";
    "cert.generate";
    "cert.check";
    "engine";
  ]

(* Program counters, as deltas over one traced pass. *)
let counters =
  [
    "qbf.refinements";
    "mg.seeds_tried";
    "mg.sat_calls";
    "ljh.sat_calls";
    "cegar.iterations";
    "cache.hits";
    "cache.misses";
    "cert.checked";
    "cert.proof_bytes";
    "engine.retries";
    "sat.calls";
    "sat.conflicts";
    "sat.decisions";
    "sat.propagations";
    "sat.restarts";
  ]

let per_layer =
  List.map (fun l -> (l ^ ".self_share", "ratio")) time_layers
  @ [
      ("sat.verify.calls", "count");
      ("sat.abstraction.calls", "count");
      ("qbf.query.calls", "count");
      ("mg.find.calls", "count");
      ("engine.attempts", "count");
      ("qbf.refute_ratio", "ratio");
      ("mg.success_ratio", "ratio");
      ("cache.hit_ratio", "ratio");
      ("n_optimal", "count");
    ]
  @ List.map (fun c -> (c, "count")) counters
  @ [
      ("ops", "count");
      ("trace.coverage", "ratio");
      ("trace.overhead", "ratio");
      ("check.s", "s");
      ("check.ops_exhaustive", "count");
      ("check.ops_unchecked", "count");
    ]

(* ---------- ops ---------- *)

type answer = Po of Gate.t option * Engine.po_result | Qbf of Qdimacs.answer

(* One session per (circuit, method, gate), all sharing one fresh cache
   when the workload has one; QDIMACS ops have none. Opened before every
   pass, so that no op pays for a session and a cache starts empty. *)
let open_sessions (w : W.t) circuits ops =
  let cache = if w.W.cache then Some (Cache.create ()) else None in
  let table = Hashtbl.create 64 in
  let session circuit method_ gate =
    let key = (circuit, method_, gate) in
    match Hashtbl.find_opt table key with
    | Some e -> e
    | None ->
        let config =
          Config.default |> Config.with_method method_ |> Config.with_gate gate
          |> Config.with_per_po_budget W.per_po_budget
          |> Config.with_cache cache |> Config.with_certify w.W.certify
        in
        let e = Engine.create ~config circuits.(circuit) in
        Hashtbl.replace table key e;
        e
  in
  Array.map
    (fun (op : W.op) ->
      match op.W.kind with
      | W.Decompose (m, g) -> Some (session op.W.circuit m g)
      | W.Auto -> Some (session op.W.circuit Method.Qd Gate.Or_gate)
      | W.Qdimacs -> None)
    ops

(* The QDIMACS path exports from a private copy: the export adds copy
   inputs to the manager it works in, and the session circuits must stay
   the same from pass to pass. *)
let exec circuits session (op : W.op) =
  match op.W.kind with
  | W.Decompose (_, g) ->
      Po (Some g, Engine.decompose_po (Option.get session) op.W.po)
  | W.Auto ->
      let g, r = Engine.decompose_po_auto (Option.get session) op.W.po in
      Po (g, r)
  | W.Qdimacs ->
      let text =
        Obs.span "qdimacs.export" (fun () ->
            let copy = Circuit.compact circuits.(op.W.circuit) in
            Qbf_export.or_model (Problem.of_output copy op.W.po))
      in
      let q = Obs.span "qdimacs.parse" (fun () -> Qdimacs.parse_string text) in
      Qbf
        (Obs.span "qdimacs.solve" (fun () ->
             Qdimacs.solve ~time_budget:W.per_po_budget q))

type pass = { answers : answer array; op_s : float array; wall_s : float }

let pass (w : W.t) circuits ops =
  let sessions = open_sessions w circuits ops in
  (* no pass inherits the previous one's garbage *)
  Gc.full_major ();
  let op_s = Array.make (Array.length ops) 0.0 in
  let t0 = Clock.now () in
  let answers =
    Array.mapi
      (fun i op ->
        let t = Clock.now () in
        let a = Obs.span "op" (fun () -> exec circuits sessions.(i) op) in
        op_s.(i) <- Clock.elapsed_since t;
        a)
      ops
  in
  { answers; op_s; wall_s = Clock.elapsed_since t0 }

(* ---------- quality and failures ---------- *)

let method_of = function
  | W.Decompose (m, _) -> Some m
  | W.Auto -> Some Method.Qd
  | W.Qdimacs -> None

let exact kind =
  match method_of kind with
  | Some (Method.Qd | Method.Qb | Method.Qdb) -> true
  | Some (Method.Mg | Method.Ljh) | None -> false

(* Failed: raised, degraded, timed out, returned Unknown, a QBF answer
   without its optimality proof, or a certificate its own checker
   rejected. Wrong answers are found by the oracle and counted apart. *)
let failed (op : W.op) = function
  | Qbf a -> a = Qdimacs.Unknown
  | Po (_, r) -> (
      (match Engine.po_status r with
      | "failed" | "degraded" | "timeout" -> true
      | _ -> false)
      || (exact op.W.kind && not r.Engine.proven_optimal)
      ||
      match r.Engine.certificate with
      | Some c -> not c.Step_core.Certify.ok
      | None -> false)

type quality = {
  ops : int;
  n_decomposed : int;
  n_optimal : int;
  total_cost : int;
  n_failed : int;  (** wrong answers not included *)
  n_wrong : int;
}

let fail_ratio q =
  if q.ops = 0 then 0.0
  else float_of_int (q.n_failed + q.n_wrong) /. float_of_int q.ops

(* [rows] pairs each op with its answer and whether the oracle found it
   wrong. QDIMACS ops count for failures only. *)
let quality rows =
  List.fold_left
    (fun q ((op : W.op), answer, wrong) ->
      let q =
        {
          q with
          ops = q.ops + 1;
          n_wrong = (q.n_wrong + if wrong then 1 else 0);
          n_failed =
            (q.n_failed + if (not wrong) && failed op answer then 1 else 0);
        }
      in
      match (method_of op.W.kind, answer) with
      | Some m, Po (_, r) ->
          let decomposed = r.Engine.partition <> None in
          let count b = if b then 1 else 0 in
          {
            q with
            n_decomposed = q.n_decomposed + count decomposed;
            n_optimal =
              q.n_optimal + count (decomposed && r.Engine.proven_optimal);
            total_cost =
              q.total_cost
              + Oracle.cost m ~support:r.Engine.support_size r.Engine.partition;
          }
      | _ -> q)
    {
      ops = 0;
      n_decomposed = 0;
      n_optimal = 0;
      total_cost = 0;
      n_failed = 0;
      n_wrong = 0;
    }
    rows

(* ---------- answer check ---------- *)

let verdict circuits (op : W.op) answer =
  let circuit = circuits.(op.W.circuit) and po = op.W.po in
  match (op.W.kind, answer) with
  | W.Qdimacs, Qbf a -> Oracle.check_qdimacs circuit po a
  | W.Auto, Po (gate, r) ->
      Oracle.check_auto circuit po ~gate ~partition:r.Engine.partition
        ~proven_optimal:r.Engine.proven_optimal
  | W.Decompose (m, g), Po (_, r) when exact op.W.kind ->
      Oracle.check_exact circuit po g m ~partition:r.Engine.partition
        ~proven_optimal:r.Engine.proven_optimal
  | W.Decompose (_, g), Po (_, r) -> (
      (* MG and LJH claim only validity; a miss costs quality *)
      match r.Engine.partition with
      | Some p -> Oracle.valid circuit po g p
      | None -> Oracle.Checked)
  | _ -> Oracle.Wrong "answer of the wrong kind"

(* What an answer claims, timings left out: equal claims are checked once. *)
let claim = function
  | Qbf a -> `Qbf a
  | Po (g, r) ->
      `Po (g, r.Engine.partition, r.Engine.proven_optimal, Engine.po_status r)

type check = {
  wrong : bool array list;  (** per pass, per op *)
  exhaustive : int;  (** ops of the first pass checked completely *)
  unchecked : int;  (** ops of the first pass with a claim left unchecked *)
  check_s : float;
  messages : string list;
}

let check circuits ops passes =
  let t0 = Clock.now () in
  let seen = Array.map (fun _ -> Hashtbl.create 1) ops in
  let exhaustive = ref 0 and unchecked = ref 0 and messages = ref [] in
  let judge first i a =
    let key = claim a in
    match Hashtbl.find_opt seen.(i) key with
    | Some w -> w
    | None ->
        let v = verdict circuits ops.(i) a in
        (match v with
        | Oracle.Exhaustive -> if first then incr exhaustive
        | Oracle.Unchecked _ -> if first then incr unchecked
        | Oracle.Checked -> ()
        | Oracle.Wrong msg ->
            let op = ops.(i) in
            messages :=
              Printf.sprintf "%s po %d %s: %s" circuits.(op.W.circuit).Circuit.name
                op.W.po (W.kind_to_string op.W.kind) msg
              :: !messages);
        let w = match v with Oracle.Wrong _ -> true | _ -> false in
        Hashtbl.replace seen.(i) key w;
        w
  in
  let wrong = List.mapi (fun k p -> Array.mapi (judge (k = 0)) p.answers) passes in
  {
    wrong;
    exhaustive = !exhaustive;
    unchecked = !unchecked;
    check_s = Clock.elapsed_since t0;
    messages = List.rev !messages;
  }

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let r = q *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* ---------- layers ---------- *)

(* The layer a span's self time belongs to. [inside] is set below spans
   that own their whole subtree: the generic 2QBF solver (whose loop names
   its SAT calls like the decomposition model's) and certificates. *)
let layer ~inside name =
  match inside with
  | Some l -> l
  | None -> (
      match name with
      | "engine.attempt" | "pipeline.po" -> "engine"
      | "qdimacs.solve" | "cegar.solve" -> "cegar.solve"
      | _ -> name)

let owns_subtree l = List.mem l [ "cegar.solve"; "cert.generate"; "cert.check" ]

type layers = {
  self_s : (string, float) Hashtbl.t;  (** by layer *)
  calls : (string, int) Hashtbl.t;  (** by span name, outside owned subtrees *)
  op_total_s : float;  (** summed duration of the [op] spans *)
}

let fold_profile (p : Profile.t) =
  let self_s = Hashtbl.create 16 and calls = Hashtbl.create 16 in
  let op_total_s = ref 0.0 in
  let find tbl k zero = Option.value ~default:zero (Hashtbl.find_opt tbl k) in
  let rec walk ~inside (n : Profile.node) =
    let name = n.Profile.pn_name in
    let l = layer ~inside name in
    Hashtbl.replace self_s l (find self_s l 0.0 +. n.Profile.pn_self_s);
    if inside = None then begin
      Hashtbl.replace calls name (find calls name 0 + n.Profile.pn_count);
      if name = "op" then op_total_s := !op_total_s +. n.Profile.pn_total_s
    end;
    let inside = if owns_subtree l then Some l else inside in
    Hashtbl.iter (fun _ c -> walk ~inside c) n.Profile.pn_children
  in
  List.iter (walk ~inside:None) p.Profile.roots;
  { self_s; calls; op_total_s = !op_total_s }

(* ---------- the run ---------- *)

type traced = { tpass : pass; layers : layers; deltas : (string * int) list }

let traced_pass w circuits ops =
  let sink, profile = Profile.collector () in
  let before = Metrics.counters () in
  let tpass = Obs.with_sink sink (fun () -> pass w circuits ops) in
  let deltas =
    List.map
      (fun (c, v) -> (c, v - Option.value ~default:0 (List.assoc_opt c before)))
      (Metrics.counters ())
  in
  { tpass; layers = fold_profile (profile ()); deltas }

(* Whole passes until the next one would end after [seconds], at least
   two; with [trace] they alternate untraced, traced. *)
let measure ~seconds ~trace w circuits ops =
  let t0 = Clock.now () in
  let rec loop k untraced traced =
    let untraced, traced =
      if trace && k mod 2 = 1 then (untraced, traced_pass w circuits ops :: traced)
      else (pass w circuits ops :: untraced, traced)
    in
    let elapsed = Clock.elapsed_since t0 in
    if k >= 1 && elapsed *. float_of_int (k + 2) /. float_of_int (k + 1) > seconds
    then (List.rev untraced, List.rev traced)
    else loop (k + 1) untraced traced
  in
  loop 0 [] []

let layer_metrics traced ~untraced_wall chk =
  match traced with
  | [] -> []
  | first :: _ ->
      let sum f = List.fold_left (fun acc t -> acc +. f t.layers) 0.0 traced in
      let op_s = sum (fun l -> l.op_total_s) in
      let share l =
        sum (fun x -> Option.value ~default:0.0 (Hashtbl.find_opt x.self_s l))
        /. op_s
      in
      let calls name =
        let n = Hashtbl.find_opt first.layers.calls name in
        float_of_int (Option.value ~default:0 n)
      in
      let count c =
        float_of_int (Option.value ~default:0 (List.assoc_opt c first.deltas))
      in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let traced_wall = median (List.map (fun t -> t.tpass.wall_s) traced) in
      List.map (fun l -> (l ^ ".self_share", share l)) time_layers
      @ [
          ("sat.verify.calls", calls "sat.verify");
          ("sat.abstraction.calls", calls "sat.abstraction");
          ("qbf.query.calls", calls "qbf.query");
          ("mg.find.calls", calls "mg.find");
          ("engine.attempts", calls "engine.attempt");
          ( "qbf.refute_ratio",
            ratio (count "qbf.refinements") (calls "sat.verify") );
          ("mg.success_ratio", ratio (count "mg.decomposed") (calls "mg.find"));
          ( "cache.hit_ratio",
            ratio (count "cache.hits")
              (count "cache.hits" +. count "cache.misses") );
        ]
      @ List.map (fun c -> (c, count c)) counters
      @ [
          ("trace.coverage", 1.0 -. share "op");
          ("trace.overhead", (traced_wall /. untraced_wall) -. 1.0);
          ("check.s", chk.check_s);
          ("check.ops_exhaustive", float_of_int chk.exhaustive);
          ("check.ops_unchecked", float_of_int chk.unchecked);
        ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;  (** wrong answers included *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  wrong : string list;  (** one line per wrong answer *)
}

(* Set-up takes milliseconds, so it is repeated and the median kept. *)
let setup_reps = 15

let run (w : W.t) ~seed ~seconds ~trace =
  let setup () =
    let t0 = Clock.now () in
    let circuits = w.W.generate ~seed in
    let ops = w.W.ops circuits in
    ignore (open_sessions w circuits ops);
    (Clock.elapsed_since t0, circuits, ops)
  in
  let first_s, circuits, ops = setup () in
  let setup_s =
    median
      (first_s
      :: List.init (setup_reps - 1) (fun _ ->
             let s, _, _ = setup () in
             s))
  in
  let untraced, traced = measure ~seconds ~trace w circuits ops in
  (* the high-water mark of the measured passes, before the check *)
  let peak_rss_mb = peak_rss_mb () in
  let passes = untraced @ List.map (fun t -> t.tpass) traced in
  let chk = check circuits ops passes in
  (* quality from the first pass, failures and wrong answers from all *)
  let per_pass =
    List.map2
      (fun p wrong ->
        quality
          (List.init (Array.length ops) (fun i ->
               (ops.(i), p.answers.(i), wrong.(i)))))
      passes chk.wrong
  in
  let q = List.hd per_pass in
  let total f = List.fold_left (fun acc q -> acc + f q) 0 per_pass in
  let all =
    {
      q with
      ops = total (fun q -> q.ops);
      n_failed = total (fun q -> q.n_failed);
      n_wrong = total (fun q -> q.n_wrong);
    }
  in
  let ms x = 1000.0 *. x in
  let op_medians =
    List.init (Array.length ops) (fun i ->
        median (List.map (fun p -> p.op_s.(i)) untraced))
  in
  let untraced_wall = median (List.map (fun p -> p.wall_s) untraced) in
  let e2e =
    [
      ("setup_s", setup_s);
      ("wall_s", untraced_wall);
      ("op_p50_ms", ms (percentile 0.5 op_medians));
      ("op_p90_ms", ms (percentile 0.9 op_medians));
      ("peak_rss_mb", peak_rss_mb);
      ("n_decomposed", float_of_int q.n_decomposed);
      ("total_cost", float_of_int q.total_cost);
    ]
  in
  (* printed in every run; [ops] and [n_optimal] are also per-layer
     metrics of the traced run *)
  let extra =
    [
      ("ops", float_of_int q.ops);
      ("passes", float_of_int (List.length untraced));
      ("n_optimal", float_of_int q.n_optimal);
      ("fail_ratio", fail_ratio all);
      ("wrong_ops", float_of_int all.n_wrong);
    ]
  in
  let units =
    end_to_end @ per_layer
    @ [ ("passes", "count"); ("fail_ratio", "ratio"); ("wrong_ops", "count") ]
  in
  {
    correct = all.n_wrong = 0;
    attempted = all.ops;
    failed = all.n_failed + all.n_wrong;
    metrics =
      List.map
        (fun (n, v) -> (n, v, List.assoc n units))
        (e2e @ extra @ layer_metrics traced ~untraced_wall chk);
    wrong = chk.messages;
  }

(* ---------- output ---------- *)

(* The JSON result: the declared metrics of the pass kind, nothing else. *)
let to_json ~trace r =
  let declared = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    List.find_map
      (fun (n, v, _) ->
        if n = name then
          Some
            ( name,
              Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ] )
        else None)
      r.metrics
  in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.filter_map metric declared));
    ]
