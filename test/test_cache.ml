(* Tests for the cone-canonical decomposition cache: canonical keying,
   faithful rebuild, engine integration (parallel determinism), and the
   on-disk layer's validation diagnostics. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Cone = Step_aig.Cone
module Cache = Step_cache.Cache
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Config = Step_engine.Config
module Engine = Step_engine.Engine
module Method = Step_core.Method
module Generators = Step_circuits.Generators
module Diag = Step_lint.Diag

(* ---------- canonical keys ---------- *)

let test_key_invariant_under_renaming () =
  (* f1 = (x0 & x1) | x2 *)
  let m1 = Aig.create () in
  let x = Array.init 3 (fun _ -> Aig.fresh_input m1) in
  let f1 = Aig.or_ m1 (Aig.and_ m1 x.(0) x.(1)) x.(2) in
  (* same shape over permuted inputs of a wider manager, with every input
     negated: (¬y3 & ¬y1) | ¬y0 *)
  let m2 = Aig.create () in
  let y = Array.init 4 (fun _ -> Aig.fresh_input m2) in
  let f2 =
    Aig.or_ m2
      (Aig.and_ m2 (Aig.not_ y.(3)) (Aig.not_ y.(1)))
      (Aig.not_ y.(0))
  in
  let c1 = Cone.extract m1 f1 and c2 = Cone.extract m2 f2 in
  Alcotest.(check string) "keys equal" c1.Cone.key c2.Cone.key;
  Alcotest.(check int) "3 canonical inputs" 3 (Cone.n_inputs c2);
  (* the mapping records which original inputs feed the cone *)
  Alcotest.(check (list int)) "input mapping covers {0,1,3}" [ 0; 1; 3 ]
    (List.sort compare (Array.to_list c2.Cone.inputs))

let test_key_distinguishes_functions () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let c = Aig.fresh_input m in
  let keys =
    List.map
      (fun f -> (Cone.extract m f).Cone.key)
      [
        Aig.and_ m a b;
        Aig.or_ m a b;
        Aig.xor_ m a b;
        Aig.and_ m (Aig.and_ m a b) c;
        Aig.or_ m (Aig.and_ m a b) c;
      ]
  in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "all keys distinct" (List.length keys)
    (List.length distinct)

let test_build_is_faithful () =
  (* rebuild from the canonical form and compare truth tables through the
     recorded input mapping and polarity flips *)
  let m = Aig.create () in
  let x = Array.init 4 (fun _ -> Aig.fresh_input m) in
  let funcs =
    [
      Aig.or_ m (Aig.and_ m x.(0) x.(1)) (Aig.and_ m x.(2) x.(3));
      Aig.xor_ m (Aig.xor_ m x.(0) x.(2)) x.(3);
      Aig.ite m x.(1) (Aig.or_ m x.(0) x.(3)) (Aig.and_ m x.(2) x.(0));
      Aig.not_ (Aig.and_ m (Aig.not_ x.(1)) (Aig.or_ m x.(2) (Aig.not_ x.(3))));
    ]
  in
  List.iteri
    (fun fi f ->
      let cone = Cone.extract m f in
      let m2, f2 = Cone.build cone in
      for mask = 0 to 15 do
        let env i = (mask lsr i) land 1 = 1 in
        (* canonical input k is original input [inputs.(k)] xor [flips.(k)] *)
        let env2 k = env cone.Cone.inputs.(k) <> cone.Cone.flips.(k) in
        Alcotest.(check bool)
          (Printf.sprintf "f%d mask=%d" fi mask)
          (Aig.eval m env f) (Aig.eval m2 env2 f2)
      done)
    funcs

(* ---------- engine integration ---------- *)

(* everything except the cpu timings and the hit/miss flag, which
   legitimately vary (under -j4 which worker misses first is a race) *)
let essence (r : Engine.po_result) =
  ( r.Engine.po_name,
    r.Engine.support_size,
    r.Engine.partition,
    r.Engine.proven_optimal,
    r.Engine.timed_out,
    r.Engine.counters )

let decoder_config ?cache ?(jobs = 1) ?(certify = false) () =
  match
    Config.validate
      {
        Config.default with
        Config.gate = Gate.And_gate;
        method_ = Method.Qd;
        jobs;
        cache;
        certify;
      }
  with
  | Ok c -> c
  | Error msg -> failwith msg

let run_decoder ?cache ?jobs ?certify () =
  let c = Generators.decoder 3 in
  Engine.run (Engine.create ~config:(decoder_config ?cache ?jobs ?certify ()) c)

let check_stats name (c : Cache.t) ~hits ~misses =
  let s = Cache.stats c in
  Alcotest.(check int) (name ^ " hits") hits s.Cache.hits;
  Alcotest.(check int) (name ^ " misses") misses s.Cache.misses

let test_engine_cached_matches_uncached () =
  (* All 8 decoder minterms share one canonical cone: 1 miss, 7 hits.
     Cached runs must be identical to each other whatever the worker
     count (the cached value is a function of the canonical key, not of
     which PO happened to miss first), and each result must be exactly as
     good as the cache-free run's. *)
  let plain = run_decoder () in
  let cache1 = Cache.create () in
  let cached1 = run_decoder ~cache:cache1 ~jobs:1 () in
  let cache4 = Cache.create () in
  let cached4 = run_decoder ~cache:cache4 ~jobs:4 () in
  check_stats "jobs=1" cache1 ~hits:7 ~misses:1;
  check_stats "jobs=4" cache4 ~hits:7 ~misses:1;
  let circuit = Generators.decoder 3 in
  Array.iteri
    (fun i po ->
      let po1 = cached1.Engine.per_po.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "po=%d schedule-independent" i)
        true
        (essence po1 = essence cached4.Engine.per_po.(i));
      Alcotest.(check bool)
        (Printf.sprintf "po=%d hit/miss flag present" i)
        true (po1.Engine.cache_hit <> None);
      (* parity with the uncached run: same outcome and same quality *)
      Alcotest.(check bool)
        (Printf.sprintf "po=%d same status" i)
        true
        (po.Engine.proven_optimal = po1.Engine.proven_optimal
        && po.Engine.timed_out = po1.Engine.timed_out
        && (po.Engine.partition = None) = (po1.Engine.partition = None));
      match (po.Engine.partition, po1.Engine.partition) with
      | Some pp, Some cp ->
          let p =
            Step_core.Problem.of_edge circuit.Circuit.aig
              (Circuit.output circuit i)
          in
          Alcotest.(check bool)
            (Printf.sprintf "po=%d cached partition valid" i)
            true
            (Step_core.Check.decomposable p Gate.And_gate cp);
          Alcotest.(check int)
            (Printf.sprintf "po=%d same disjointness" i)
            (Partition.disjointness_k pp)
            (Partition.disjointness_k cp)
      | _ -> ())
    plain.Engine.per_po

let with_temp_dir f =
  let dir = Filename.temp_file "step-cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_disk_cold_then_warm () =
  with_temp_dir (fun dir ->
      let cold_cache = Cache.create ~dir () in
      let cold = run_decoder ~cache:cold_cache () in
      check_stats "cold" cold_cache ~hits:7 ~misses:1;
      Alcotest.(check int) "one entry file" 1 (Array.length (Sys.readdir dir));
      (* a fresh process would start with an empty in-memory table: every
         lookup is served from disk, zero misses *)
      let warm_cache = Cache.create ~dir () in
      let warm = run_decoder ~cache:warm_cache () in
      check_stats "warm" warm_cache ~hits:8 ~misses:0;
      Array.iteri
        (fun i po ->
          Alcotest.(check bool)
            (Printf.sprintf "po=%d identical" i)
            true
            (essence po = essence warm.Engine.per_po.(i)))
        cold.Engine.per_po)

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let test_disk_corrupt_entry_skipped () =
  with_temp_dir (fun dir ->
      let c0 = Cache.create ~dir () in
      ignore (run_decoder ~cache:c0 ());
      let file =
        Filename.concat dir (Sys.readdir dir).(0)
      in
      let oc = open_out file in
      output_string oc "not json at all";
      close_out oc;
      (* corrupt entry: diagnosed, recomputed, and healed by the store *)
      let c1 = Cache.create ~dir () in
      ignore (run_decoder ~cache:c1 ());
      check_stats "healing run" c1 ~hits:7 ~misses:1;
      Alcotest.(check bool) "CSH001 emitted" true (has_code "CSH001" (Cache.diags c1));
      Alcotest.(check bool) "no error severity" false
        (Diag.has_errors (Cache.diags c1));
      let c2 = Cache.create ~dir () in
      ignore (run_decoder ~cache:c2 ());
      check_stats "healed" c2 ~hits:8 ~misses:0;
      Alcotest.(check bool) "no further diags" true (Cache.diags c2 = []))

(* A stored certificate is re-validated against the rest of the entry on
   every disk rehydration: tampering with the cached partition while
   leaving the certificate in place must reject the entry (CSH006, the
   cache.cert_rejected metric) and force a recompute that heals it. *)
let test_disk_tampered_cert_rejected () =
  let module Json = Step_obs.Json in
  with_temp_dir (fun dir ->
      let c0 = Cache.create ~dir () in
      let r0 = run_decoder ~cache:c0 ~certify:true () in
      Alcotest.(check bool) "run produced certificates" true
        (Array.for_all
           (fun po -> po.Engine.certificate <> None)
           r0.Engine.per_po);
      let file = Filename.concat dir (Sys.readdir dir).(0) in
      (* swap XA and XB in the stored partition; the embedded certificate
         still speaks for the original one *)
      let swap_partition = function
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "partition", Json.Obj pf ->
                       ( "partition",
                         Json.Obj
                           (List.map
                              (function
                                | "xa", v -> ("xb", v)
                                | "xb", v -> ("xa", v)
                                | kv -> kv)
                              pf) )
                   | kv -> kv)
                 fields)
        | j -> j
      in
      let j = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Json.to_string (swap_partition j)));
      let rejected_before =
        Step_obs.Metrics.value (Step_obs.Metrics.counter "cache.cert_rejected")
      in
      let c1 = Cache.create ~dir () in
      ignore (run_decoder ~cache:c1 ~certify:true ());
      check_stats "tampered run" c1 ~hits:7 ~misses:1;
      Alcotest.(check bool) "CSH006 emitted" true
        (has_code "CSH006" (Cache.diags c1));
      Alcotest.(check bool) "metric incremented" true
        (Step_obs.Metrics.value
           (Step_obs.Metrics.counter "cache.cert_rejected")
        > rejected_before);
      (* the recompute overwrote the tampered entry: clean warm run *)
      let c2 = Cache.create ~dir () in
      ignore (run_decoder ~cache:c2 ~certify:true ());
      check_stats "healed" c2 ~hits:8 ~misses:0;
      Alcotest.(check bool) "no further diags" true (Cache.diags c2 = []))

(* ---------- certificates: checked once, reused on every hit ---------- *)

let checked () =
  Step_obs.Metrics.value (Step_obs.Metrics.counter "cert.checked")

(* [f ()] with the number of cert.generate spans it opened *)
let count_generated f =
  let n = ref 0 in
  let sink =
    Step_obs.Obs.callback_sink (fun r ->
        if r.Step_obs.Obs.r_name = "cert.generate" then incr n)
  in
  let x = Step_obs.Obs.with_sink sink f in
  (x, !n)

let all_certs_ok (r : Engine.circuit_result) =
  Array.for_all
    (fun po ->
      match po.Engine.certificate with
      | Some c -> c.Step_core.Certify.ok
      | None -> false)
    r.Engine.per_po

(* The decoder's 8 outputs share one cone: the miss builds and checks the
   one certificate, every in-memory hit reuses its checked summary. A
   second run on the same cache checks nothing. *)
let test_memory_hit_reuses_summary () =
  let c = Cache.create () in
  let before = checked () in
  let cold = run_decoder ~cache:c ~certify:true () in
  Alcotest.(check int) "cold run checks once" 1 (checked () - before);
  Alcotest.(check bool) "cold summaries ok" true (all_certs_ok cold);
  let before = checked () in
  let warm = run_decoder ~cache:c ~certify:true () in
  check_stats "after two runs" c ~hits:15 ~misses:1;
  Alcotest.(check int) "hits run no checker" 0 (checked () - before);
  Alcotest.(check bool) "warm summaries ok" true (all_certs_ok warm)

(* A disk hit checks the stored certificate once, at load; the hits that
   follow reuse that summary. *)
let test_disk_hit_checked_once () =
  with_temp_dir (fun dir ->
      ignore (run_decoder ~cache:(Cache.create ~dir ()) ~certify:true ());
      let warm_cache = Cache.create ~dir () in
      let before = checked () in
      let warm, generated =
        count_generated (fun () ->
            run_decoder ~cache:warm_cache ~certify:true ())
      in
      check_stats "warm" warm_cache ~hits:8 ~misses:0;
      Alcotest.(check int) "no certificate built" 0 generated;
      Alcotest.(check int) "one check, at the load" 1 (checked () - before);
      Alcotest.(check bool) "summaries ok" true (all_certs_ok warm))

(* -g auto certifies the gate it keeps after the cache stored its entry
   without a certificate; the certificate is attached and republished,
   so a fresh cache on the same directory serves it from disk. *)
let test_auto_winner_cert_persisted () =
  let auto cache =
    let config =
      decoder_config ~cache ~certify:true () |> Config.with_gate Gate.Or_gate
    in
    Engine.run_auto (Engine.create ~config (Generators.decoder 3))
  in
  let ok results =
    Array.for_all
      (fun (_, (r : Engine.po_result)) ->
        match r.Engine.certificate with
        | Some c -> c.Step_core.Certify.ok
        | None -> false)
      results
  in
  with_temp_dir (fun dir ->
      let cold = auto (Cache.create ~dir ()) in
      Alcotest.(check bool) "cold summaries ok" true (ok cold);
      let has_cert f =
        let j =
          Step_obs.Json.of_string
            (In_channel.with_open_text (Filename.concat dir f)
               In_channel.input_all)
        in
        Step_obs.Json.member "cert" j <> Step_obs.Json.Null
      in
      Alcotest.(check bool) "an entry file carries a certificate" true
        (Array.exists has_cert (Sys.readdir dir));
      let before = checked () in
      let warm, generated =
        count_generated (fun () -> auto (Cache.create ~dir ()))
      in
      Alcotest.(check int) "no certificate built" 0 generated;
      Alcotest.(check int) "the winner's certificate checked once" 1
        (checked () - before);
      Alcotest.(check bool) "warm summaries ok" true (ok warm))

(* ---------- direct api: dedup, versioning, validation ---------- *)

let entry_file dir key =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".json")

let some_entry =
  {
    Cache.partition = Some (Partition.make ~xa:[ 0 ] ~xb:[ 1 ] ~xc:[]);
    proven_optimal = true;
    timed_out = false;
    counters = [ ("sat.solves", 3) ];
    cert = None;
  }

let test_compute_called_once () =
  let c = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; some_entry in
  let e1, hit1 = Cache.find_or_compute c ~key:"k" ~n_inputs:2 compute in
  let e2, hit2 = Cache.find_or_compute c ~key:"k" ~n_inputs:2 compute in
  Alcotest.(check int) "one compute" 1 !calls;
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check bool) "same entry" true (e1 = e2)

(* A second caller that arrives while the first is certifying the same
   key waits for it and reuses its certificate: the certificate is made
   once per key. Later callers find it attached to the entry. *)
let test_certify_once_per_key () =
  let c = Cache.create () in
  ignore (Cache.find_or_compute c ~key:"k" ~n_inputs:2 (fun () -> some_entry));
  let m = Aig.create () in
  let x0 = Aig.fresh_input m and x1 = Aig.fresh_input m in
  let p = Step_core.Problem.of_edge m (Aig.and_ m x0 x1) in
  let part = Partition.make ~xa:[ 0 ] ~xb:[ 1 ] ~xc:[] in
  let made = Atomic.make 0 and started = Atomic.make false in
  let make () =
    Atomic.incr made;
    Atomic.set started true;
    Unix.sleepf 0.05;
    Step_core.Certify.for_po ~po:"k" ~method_name:"test" p Gate.And_gate
      (Some part)
  in
  let first = Domain.spawn (fun () -> Cache.certify c ~key:"k" make) in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let second = Cache.certify c ~key:"k" make in
  let first = Domain.join first in
  Alcotest.(check int) "made once" 1 (Atomic.get made);
  Alcotest.(check bool) "both callers got it" true
    (first <> None && first = second);
  ignore (Cache.certify c ~key:"k" make);
  Alcotest.(check int) "attached to the entry" 1 (Atomic.get made);
  let e, _ =
    Cache.find_or_compute c ~key:"k" ~n_inputs:2 (fun () -> some_entry)
  in
  Alcotest.(check bool) "entry carries it" true (e.Cache.cert = first)

let test_timed_out_never_cached () =
  let c = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; { some_entry with Cache.timed_out = true } in
  ignore (Cache.find_or_compute c ~key:"k" ~n_inputs:2 compute);
  ignore (Cache.find_or_compute c ~key:"k" ~n_inputs:2 compute);
  Alcotest.(check int) "recomputed each time" 2 !calls;
  check_stats "timeouts" c ~hits:0 ~misses:2

let test_version_mismatch_skipped () =
  with_temp_dir (fun dir ->
      let key = "k" in
      let oc = open_out (entry_file dir key) in
      output_string oc
        "{\"version\": 99, \"key\": \"k\", \"partition\": null, \
         \"optimal\": false, \"counters\": {}}";
      close_out oc;
      let c = Cache.create ~dir () in
      let calls = ref 0 in
      let compute () = incr calls; some_entry in
      ignore (Cache.find_or_compute c ~key ~n_inputs:2 compute);
      Alcotest.(check int) "recomputed" 1 !calls;
      Alcotest.(check bool) "CSH002 emitted" true
        (has_code "CSH002" (Cache.diags c)))

let test_invalid_partition_skipped () =
  with_temp_dir (fun dir ->
      let key = "k" in
      (* overlapping xa/xb: must be rejected, not trusted *)
      let oc = open_out (entry_file dir key) in
      output_string oc
        "{\"version\": 1, \"key\": \"k\", \"partition\": {\"xa\": [0], \
         \"xb\": [0], \"xc\": []}, \"optimal\": true, \"counters\": {}}";
      close_out oc;
      let c = Cache.create ~dir () in
      let calls = ref 0 in
      let compute () = incr calls; some_entry in
      ignore (Cache.find_or_compute c ~key ~n_inputs:2 compute);
      Alcotest.(check int) "recomputed" 1 !calls;
      Alcotest.(check bool) "CSH004 emitted" true
        (has_code "CSH004" (Cache.diags c)))

let test_key_mismatch_skipped () =
  with_temp_dir (fun dir ->
      let key = "k" in
      (* right file name, wrong recorded key: hash collision / stale file *)
      let oc = open_out (entry_file dir key) in
      output_string oc
        "{\"version\": 1, \"key\": \"other\", \"partition\": null, \
         \"optimal\": false, \"counters\": {}}";
      close_out oc;
      let c = Cache.create ~dir () in
      let calls = ref 0 in
      let compute () = incr calls; some_entry in
      ignore (Cache.find_or_compute c ~key ~n_inputs:2 compute);
      Alcotest.(check int) "recomputed" 1 !calls;
      Alcotest.(check bool) "CSH003 emitted" true
        (has_code "CSH003" (Cache.diags c)))

let () =
  Alcotest.run "step_cache"
    [
      ( "cone",
        [
          Alcotest.test_case "key invariant under renaming" `Quick
            test_key_invariant_under_renaming;
          Alcotest.test_case "key distinguishes functions" `Quick
            test_key_distinguishes_functions;
          Alcotest.test_case "build is faithful" `Quick test_build_is_faithful;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cached = uncached (j1, j4)" `Quick
            test_engine_cached_matches_uncached;
          Alcotest.test_case "disk cold then warm" `Quick
            test_disk_cold_then_warm;
          Alcotest.test_case "corrupt entry skipped" `Quick
            test_disk_corrupt_entry_skipped;
          Alcotest.test_case "tampered cert rejected" `Quick
            test_disk_tampered_cert_rejected;
          Alcotest.test_case "memory hit reuses the summary" `Quick
            test_memory_hit_reuses_summary;
          Alcotest.test_case "disk hit checked once" `Quick
            test_disk_hit_checked_once;
          Alcotest.test_case "auto winner certificate persisted" `Quick
            test_auto_winner_cert_persisted;
        ] );
      ( "api",
        [
          Alcotest.test_case "compute called once" `Quick
            test_compute_called_once;
          Alcotest.test_case "timed out never cached" `Quick
            test_timed_out_never_cached;
          Alcotest.test_case "certify once per key" `Quick
            test_certify_once_per_key;
          Alcotest.test_case "version mismatch skipped" `Quick
            test_version_mismatch_skipped;
          Alcotest.test_case "invalid partition skipped" `Quick
            test_invalid_partition_skipped;
          Alcotest.test_case "key mismatch skipped" `Quick
            test_key_mismatch_skipped;
        ] );
    ]
