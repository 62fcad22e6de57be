(* Tests for the session engine: config validation, the domain pool, and
   the determinism contract — a parallel run must produce exactly the
   same results, in the same order, as a sequential one. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Method = Step_core.Method
module Partition = Step_core.Partition
module Config = Step_engine.Config
module Engine = Step_engine.Engine
module Pool = Step_engine.Pool
module Retry = Step_engine.Retry
module Fault = Step_fault.Fault
module Generators = Step_circuits.Generators

(* same profile as test_pipeline's toy circuit: one OR-, one AND-, one
   XOR-decomposable output plus a parity function *)
let toy_circuit () =
  let m = Aig.create () in
  let xs = Array.init 6 (fun _ -> Aig.fresh_input m) in
  let or_dec = Aig.or_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.and_ m xs.(2) xs.(3)) in
  let and_dec =
    Aig.and_ m (Aig.or_ m xs.(0) xs.(1)) (Aig.or_ m xs.(4) xs.(5))
  in
  let xor_dec = Aig.xor_ m (Aig.and_ m xs.(0) xs.(1)) (Aig.xor_ m xs.(2) xs.(3)) in
  let parity = Aig.xor_list m (Array.to_list xs) in
  Circuit.make ~name:"toy" m
    [ ("ord", or_dec); ("andd", and_dec); ("xord", xor_dec); ("par", parity) ]

(* everything except the cpu timings, which legitimately vary *)
let essence (r : Engine.po_result) =
  ( r.Engine.po_name,
    r.Engine.support_size,
    r.Engine.partition,
    r.Engine.proven_optimal,
    r.Engine.timed_out,
    r.Engine.counters )

(* ---------- Pool ---------- *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let r = Pool.map ~jobs 17 (fun i -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.init 17 (fun i -> i * i))
        r)
    [ 1; 2; 4; 32 ];
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 0 (fun i -> i))

let test_pool_map_exception () =
  Alcotest.check_raises "first failing index wins" (Failure "boom3")
    (fun () ->
      ignore
        (Pool.map ~jobs:4 8 (fun i ->
             if i >= 3 then failwith (Printf.sprintf "boom%d" i) else i)))

(* ---------- Config ---------- *)

let test_config_validation () =
  let ok c = Result.is_ok (Config.validate c) in
  Alcotest.(check bool) "default valid" true (ok Config.default);
  Alcotest.(check bool)
    "jobs=0 rejected" false
    (ok (Config.default |> Config.with_jobs 0));
  Alcotest.(check bool)
    "jobs=-3 rejected" false
    (ok (Config.default |> Config.with_jobs (-3)));
  Alcotest.(check bool)
    "negative per-PO budget rejected" false
    (ok (Config.default |> Config.with_per_po_budget (-1.0)));
  Alcotest.(check bool)
    "negative total budget rejected" false
    (ok (Config.default |> Config.with_total_budget (-0.5)));
  Alcotest.(check bool)
    "NaN budget rejected" false
    (ok (Config.default |> Config.with_per_po_budget nan));
  Alcotest.(check bool)
    "negative min_support rejected" false
    (ok (Config.default |> Config.with_min_support (-1)));
  Alcotest.(check bool)
    "unbounded total budget allowed" true
    (ok (Config.default |> Config.with_total_budget infinity));
  Alcotest.(check bool)
    "cert_dir without certify rejected" false
    (ok (Config.default |> Config.with_cert_dir (Some "certs")));
  Alcotest.(check bool)
    "cert_dir with certify allowed" true
    (ok
       (Config.default |> Config.with_certify true
       |> Config.with_cert_dir (Some "certs")));
  (* Engine.create enforces validation *)
  match
    Engine.create
      ~config:(Config.default |> Config.with_jobs 0)
      (toy_circuit ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted jobs=0"

(* ---------- naming round-trips ---------- *)

let test_method_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Method.to_string m ^ " round-trips")
        true
        (Method.of_string (Method.to_string m) = m);
      (* the CLI-printed names parse too, case-insensitively *)
      Alcotest.(check bool)
        (Method.to_string m ^ " lowercase parses")
        true
        (Method.of_string
           (String.lowercase_ascii (Method.to_string m))
        = m))
    Method.all;
  Alcotest.(check bool)
    "garbage rejected" true
    (Method.of_string_opt "qdx" = None)

let test_gate_roundtrip () =
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Gate.to_string g ^ " round-trips")
        true
        (Gate.of_string (Gate.to_string g) = g);
      Alcotest.(check bool)
        (Gate.to_string g ^ " lowercase parses")
        true
        (Gate.of_string_opt (String.lowercase_ascii (Gate.to_string g))
        = Some g))
    Gate.all;
  Alcotest.(check bool) "padded name" true (Gate.of_string_opt " XOR " = Some Gate.Xor_gate);
  Alcotest.(check bool) "garbage rejected" true (Gate.of_string_opt "nand" = None)

(* ---------- determinism ---------- *)

let run_with_jobs c method_ gate jobs =
  let config =
    Config.default
    |> Config.with_method method_
    |> Config.with_gate gate
    |> Config.with_jobs jobs
  in
  Engine.run (Engine.create ~config c)

let test_parallel_matches_sequential () =
  let c = toy_circuit () in
  List.iter
    (fun method_ ->
      let seq = run_with_jobs c method_ Gate.Or_gate 1 in
      let par = run_with_jobs c method_ Gate.Or_gate 4 in
      Alcotest.(check int)
        (Method.to_string method_ ^ " #Dec identical")
        seq.Engine.n_decomposed par.Engine.n_decomposed;
      Array.iteri
        (fun i sr ->
          let pr = par.Engine.per_po.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s po %d identical" (Method.to_string method_) i)
            true
            (essence sr = essence pr))
        seq.Engine.per_po)
    Method.all

let test_auto_parallel_matches_sequential () =
  let c = toy_circuit () in
  let auto jobs =
    let config = Config.default |> Config.with_jobs jobs in
    Engine.run_auto (Engine.create ~config c)
  in
  let seq = auto 1 and par = auto 4 in
  Array.iteri
    (fun i (sg, sr) ->
      let pg, pr = par.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "auto po %d same gate" i)
        true (sg = pg);
      Alcotest.(check bool)
        (Printf.sprintf "auto po %d identical" i)
        true
        (essence sr = essence pr))
    seq;
  (* parity decomposes under XOR only — auto must find that *)
  let g_par, r_par = seq.(3) in
  Alcotest.(check bool) "parity gate is XOR" true (g_par = Some Gate.Xor_gate);
  Alcotest.(check bool) "parity decomposed" true (r_par.Engine.partition <> None)

(* An auto row's cpu covers all three gates: it matches the summed
   durations of the output's three pipeline.po spans (each gate's cpu is
   measured inside its span), not the winning gate's alone. *)
let test_auto_cpu_sums_gates () =
  let durs = ref [] in
  let sink =
    Step_obs.Obs.callback_sink (fun r ->
        if r.Step_obs.Obs.r_name = "pipeline.po" then
          durs := r.Step_obs.Obs.r_dur :: !durs)
  in
  let eng = Engine.create (toy_circuit ()) in
  for i = 0 to Circuit.n_outputs (Engine.circuit eng) - 1 do
    durs := [];
    let _, r =
      Step_obs.Obs.with_sink sink (fun () -> Engine.decompose_po_auto eng i)
    in
    Alcotest.(check int) (Printf.sprintf "po %d: three gates" i) 3
      (List.length !durs);
    let total = List.fold_left ( +. ) 0.0 !durs in
    Alcotest.(check bool)
      (Printf.sprintf "po %d: cpu %g within the spans' %g" i r.Engine.cpu
         total)
      true
      (r.Engine.cpu <= total && r.Engine.cpu >= (0.9 *. total) -. 1e-4)
  done

(* engine.po_s is a per-output histogram: -g auto tries three gates on
   each output but observes it once, with the row's total cpu. *)
let test_auto_po_s_once_per_output () =
  let h = Step_obs.Metrics.histogram "engine.po_s" in
  let count () = (Step_obs.Metrics.stats h).Step_obs.Metrics.count in
  let eng = Engine.create (toy_circuit ()) in
  let k = Circuit.n_outputs (Engine.circuit eng) in
  let before = count () in
  for i = 0 to k - 1 do
    ignore (Engine.decompose_po_auto eng i)
  done;
  Alcotest.(check int) "one sample per output" k (count () - before)

(* -g auto scores the three gates with no certificates and certifies only
   the one it keeps: each output builds exactly one certificate (one
   cert.generate span, one run of the checker), its summary is ok, and
   --cert-dir holds the kept gate's body. *)
let test_auto_certifies_kept_gate_only () =
  let module Cert = Step_cert.Cert in
  let module Metrics = Step_obs.Metrics in
  let dir = Filename.temp_dir "step-auto-cert" "" in
  let config =
    Config.default |> Config.with_certify true
    |> Config.with_cert_dir (Some dir)
  in
  let eng = Engine.create ~config (toy_circuit ()) in
  let generated = ref 0 in
  let sink =
    Step_obs.Obs.callback_sink (fun r ->
        if r.Step_obs.Obs.r_name = "cert.generate" then incr generated)
  in
  let checked () = Metrics.value (Metrics.counter "cert.checked") in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      for i = 0 to Circuit.n_outputs (Engine.circuit eng) - 1 do
        generated := 0;
        let before = checked () in
        let gate, r =
          Step_obs.Obs.with_sink sink (fun () -> Engine.decompose_po_auto eng i)
        in
        let po = r.Engine.po_name in
        Alcotest.(check int) (po ^ ": one certificate built") 1 !generated;
        Alcotest.(check int) (po ^ ": one certificate checked") 1
          (checked () - before);
        Alcotest.(check bool) (po ^ ": summary ok") true
          (match r.Engine.certificate with
          | Some c -> c.Step_core.Certify.ok
          | None -> false);
        match Cert.load (Cert.file ~dir po) with
        | Error msg -> Alcotest.failf "%s: %s" po msg
        | Ok c ->
            let kept = Option.value gate ~default:Gate.Or_gate in
            Alcotest.(check string) (po ^ ": saved body is the kept gate's")
              (Gate.to_string kept) c.Cert.gate;
            Alcotest.(check bool) (po ^ ": saved body claims the row's answer")
              (r.Engine.partition <> None) (c.Cert.partition <> None)
      done)

let test_session_does_not_pollute () =
  let c = toy_circuit () in
  let before = Aig.n_nodes c.Circuit.aig in
  List.iter
    (fun jobs -> ignore (run_with_jobs c Method.Qd Gate.Or_gate jobs))
    [ 1; 4 ];
  ignore (Engine.decompose_po (Engine.create c) 0);
  Alcotest.(check int)
    "session circuit manager untouched" before
    (Aig.n_nodes c.Circuit.aig)

let test_total_budget_cancellation () =
  let c = toy_circuit () in
  List.iter
    (fun jobs ->
      let config =
        Config.default |> Config.with_total_budget 0.0 |> Config.with_jobs jobs
      in
      let r = Engine.run (Engine.create ~config c) in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d nothing decomposed" jobs)
        0 r.Engine.n_decomposed;
      Array.iter
        (fun (po : Engine.po_result) ->
          Alcotest.(check bool)
            (po.Engine.po_name ^ " timed out")
            true po.Engine.timed_out)
        r.Engine.per_po)
    [ 1; 4 ]

(* ---------- supervision: fault isolation, retry, degradation ---------- *)

let with_faults text f =
  Fault.configure (Fault.parse_exn text);
  Fun.protect ~finally:Fault.disable f

let test_pool_map_result () =
  List.iter
    (fun jobs ->
      let r =
        Pool.map_result ~jobs 8 (fun i ->
            if i = 2 || i = 5 then failwith (Printf.sprintf "boom%d" i) else i)
      in
      Array.iteri
        (fun i o ->
          match o with
          | Ok v ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d slot %d ok" jobs i)
                true
                (v = i && i <> 2 && i <> 5)
          | Error (Failure msg, _) ->
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d slot %d failure" jobs i)
                (Printf.sprintf "boom%d" i) msg
          | Error _ -> Alcotest.fail "unexpected exception")
        r)
    [ 1; 4 ]

let test_pool_fatal_poisons () =
  Alcotest.check_raises "fatal re-raised" Stdlib.Exit (fun () ->
      ignore
        (Pool.map_result ~fatal:(( = ) Stdlib.Exit) ~jobs:2 6 (fun i ->
             if i = 1 then raise Stdlib.Exit else i)))

let test_fault_isolated_po () =
  let c = toy_circuit () in
  let clean = run_with_jobs c Method.Qd Gate.Or_gate 1 in
  List.iter
    (fun jobs ->
      with_faults "solver.solve@po:0" @@ fun () ->
      let r = run_with_jobs c Method.Qd Gate.Or_gate jobs in
      let injured = r.Engine.per_po.(0) in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d po 0 failed" jobs)
        "failed"
        (Engine.po_status injured);
      (match injured.Engine.failure with
      | Some f ->
          Alcotest.(check bool)
            "failure names the site" true
            (String.length f.Engine.error > 0
            && f.Engine.attempts >= 1
            && not f.Engine.transient)
      | None -> Alcotest.fail "failed row carries no failure");
      for i = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d po %d unharmed" jobs i)
          true
          (essence r.Engine.per_po.(i) = essence clean.Engine.per_po.(i))
      done)
    [ 1; 4 ];
  Alcotest.(check string) "scope unwound" "" (Fault.current_scope ())

let test_degraded_fallback () =
  let c = toy_circuit () in
  with_faults "solver.solve@po:0#1" @@ fun () ->
  let config =
    Config.default
    |> Config.with_method Method.Qd
    |> Config.with_fallback [ Method.Mg ]
  in
  let r = Engine.run (Engine.create ~config c) in
  let po = r.Engine.per_po.(0) in
  Alcotest.(check string) "status" "degraded" (Engine.po_status po);
  Alcotest.(check bool) "rung recorded" true (po.Engine.method_used = Method.Mg);
  Alcotest.(check bool) "partition recovered" true (po.Engine.partition <> None);
  Alcotest.(check int) "two attempts" 2 po.Engine.attempts;
  Alcotest.(check bool)
    "primary failure kept" true
    (po.Engine.failure <> None);
  (* the other outputs never entered the ladder *)
  Array.iteri
    (fun i (po : Engine.po_result) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "po %d not degraded" i)
          false po.Engine.degraded)
    r.Engine.per_po

let test_transient_retry () =
  let c = toy_circuit () in
  let retries = Step_obs.Metrics.counter "engine.retries" in
  let before = Step_obs.Metrics.value retries in
  with_faults "solver.solve@po:0#1!transient" @@ fun () ->
  let config =
    Config.default
    |> Config.with_method Method.Qd
    |> Config.with_retry { Retry.default with Retry.backoff_base = 0.001 }
  in
  let r = Engine.run (Engine.create ~config c) in
  let po = r.Engine.per_po.(0) in
  Alcotest.(check string) "recovered in place" "optimal" (Engine.po_status po);
  Alcotest.(check int) "two attempts" 2 po.Engine.attempts;
  Alcotest.(check bool) "no failure on success" true (po.Engine.failure = None);
  Alcotest.(check bool)
    "engine.retries bumped" true
    (Step_obs.Metrics.value retries > before)

let test_retry_classify () =
  let t e = Retry.classify e = Retry.Transient in
  Alcotest.(check bool) "Sys_error transient" true (t (Sys_error "x"));
  Alcotest.(check bool) "Out_of_memory transient" true (t Out_of_memory);
  Alcotest.(check bool) "Failure deterministic" false (t (Failure "x"));
  Alcotest.(check bool)
    "injected transient" true
    (t (Fault.Injected { site = "s"; scope = ""; hit = 1; kind = Fault.Transient }));
  Alcotest.(check bool)
    "injected crash deterministic" false
    (t (Fault.Injected { site = "s"; scope = ""; hit = 1; kind = Fault.Crash }));
  Alcotest.(check bool) "Exit fatal" true (Retry.fatal Stdlib.Exit);
  Alcotest.(check bool) "Break fatal" true (Retry.fatal Sys.Break);
  Alcotest.(check bool) "Failure not fatal" false (Retry.fatal (Failure "x"))

let test_retry_delay_deterministic () =
  let p = { Retry.default with Retry.backoff_base = 0.1; seed = 5 } in
  let d1 = Retry.delay p ~scope:"po:1" ~attempt:1 in
  Alcotest.(check (float 0.0)) "stable" d1 (Retry.delay p ~scope:"po:1" ~attempt:1);
  Alcotest.(check bool) "bounded" true (d1 <= p.Retry.backoff_max +. 1e-9);
  Alcotest.(check bool) "positive" true (d1 > 0.0);
  Alcotest.(check bool)
    "scope varies jitter" true
    (Retry.delay p ~scope:"po:2" ~attempt:1 <> d1)

(* a failing job must leave the observability layer balanced: spans
   emitted after the run still nest at depth 0 *)
let test_span_stack_balanced_after_failure () =
  let records = ref [] in
  let mu = Mutex.create () in
  let sink r = Mutex.protect mu (fun () -> records := r :: !records) in
  (with_faults "solver.solve@po:0" @@ fun () ->
   let config = Config.default |> Config.with_jobs 4 in
   Step_obs.Obs.with_sink (Step_obs.Obs.callback_sink sink) (fun () ->
       ignore (Engine.run (Engine.create ~config (toy_circuit ())))));
  let depth = ref (-1) in
  Step_obs.Obs.with_sink
    (Step_obs.Obs.callback_sink (fun r -> depth := r.Step_obs.Obs.r_depth))
    (fun () -> Step_obs.Obs.span "after.failure" (fun () -> ()));
  Alcotest.(check int) "root depth" 0 !depth

(* ---------- quality ---------- *)

(* Seeded planted cones and small structured blocks under MG and QD: the
   decomposed-output counts are deterministic, so they must reproduce
   exactly, with no failed output. *)
let test_planted_suite_quality () =
  let planted ~seed ~na ~nb ~nc g =
    (Generators.planted_cone ~seed ~na ~nb ~nc g).Generators.circuit
  in
  List.iter
    (fun (circuit, gate, n_po, n_decomposed) ->
      List.iter
        (fun method_ ->
          let config =
            Config.default |> Config.with_gate gate
            |> Config.with_method method_
            |> Config.with_per_po_budget 0.5
          in
          let r = Engine.run (Engine.create ~config circuit) in
          let id =
            Printf.sprintf "%s/%s/%s" circuit.Circuit.name
              (Method.to_string method_) (Gate.to_string gate)
          in
          Alcotest.(check int) (id ^ " n_po") n_po
            (Array.length r.Engine.per_po);
          Alcotest.(check int)
            (id ^ " n_decomposed") n_decomposed r.Engine.n_decomposed;
          Array.iter
            (fun (po : Engine.po_result) ->
              Alcotest.(check bool)
                (id ^ " " ^ po.Engine.po_name ^ " not failed")
                false
                (po.Engine.failure <> None && not po.Engine.degraded))
            r.Engine.per_po)
        [ Method.Mg; Method.Qd ])
    [
      (planted ~seed:1 ~na:3 ~nb:3 ~nc:3 Gate.Or_gate, Gate.Or_gate, 1, 1);
      (planted ~seed:2 ~na:4 ~nb:4 ~nc:1 Gate.And_gate, Gate.And_gate, 1, 1);
      (planted ~seed:3 ~na:3 ~nb:3 ~nc:2 Gate.Xor_gate, Gate.Xor_gate, 1, 1);
      (Generators.ripple_adder 3, Gate.Xor_gate, 4, 3);
      (Generators.decoder 3, Gate.And_gate, 8, 8);
      (Generators.parity 5, Gate.Xor_gate, 1, 1);
    ]

(* ---------- sinks ---------- *)

let test_run_sinks () =
  let records = ref [] in
  let mu = Mutex.create () in
  let sink r = Mutex.protect mu (fun () -> records := r :: !records) in
  let config = Config.default |> Config.with_jobs 4 in
  Step_obs.Obs.with_sink (Step_obs.Obs.callback_sink sink) (fun () ->
      ignore (Engine.run (Engine.create ~config (toy_circuit ()))));
  let names = List.map (fun r -> r.Step_obs.Obs.r_name) !records in
  Alcotest.(check int) "one run span" 1
    (List.length (List.filter (( = ) "pipeline.run") names));
  Alcotest.(check int) "one po span per output" 4
    (List.length (List.filter (( = ) "pipeline.po") names))

let () =
  Alcotest.run "step_engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "map exception" `Quick test_pool_map_exception;
          Alcotest.test_case "map_result captures" `Quick test_pool_map_result;
          Alcotest.test_case "fatal poisons" `Quick test_pool_fatal_poisons;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "fault isolated to one po" `Quick
            test_fault_isolated_po;
          Alcotest.test_case "degraded via fallback" `Quick
            test_degraded_fallback;
          Alcotest.test_case "transient retry" `Quick test_transient_retry;
          Alcotest.test_case "classification" `Quick test_retry_classify;
          Alcotest.test_case "delay deterministic" `Quick
            test_retry_delay_deterministic;
          Alcotest.test_case "span stack balanced after failure" `Quick
            test_span_stack_balanced_after_failure;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "naming",
        [
          Alcotest.test_case "method round-trip" `Quick test_method_roundtrip;
          Alcotest.test_case "gate round-trip" `Quick test_gate_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "auto parallel = sequential" `Quick
            test_auto_parallel_matches_sequential;
          Alcotest.test_case "auto cpu sums the gates" `Quick
            test_auto_cpu_sums_gates;
          Alcotest.test_case "auto certifies the kept gate only" `Quick
            test_auto_certifies_kept_gate_only;
          Alcotest.test_case "auto observes po_s once per output" `Quick
            test_auto_po_s_once_per_output;
          Alcotest.test_case "session circuit untouched" `Quick
            test_session_does_not_pollute;
          Alcotest.test_case "total budget cancels" `Quick
            test_total_budget_cancellation;
        ] );
      ( "quality",
        [
          Alcotest.test_case "planted suite" `Quick test_planted_suite_quality;
        ] );
      ("sinks", [ Alcotest.test_case "trace + stats" `Quick test_run_sinks ]);
    ]
