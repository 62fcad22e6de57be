(* Fault-injection harness: spec parsing, deterministic schedules,
   scoping, and the solver integration point. *)

module Fault = Step_fault.Fault

let with_spec text f =
  Fault.configure (Fault.parse_exn text);
  Fun.protect ~finally:Fault.disable f

let injected f =
  match f () with
  | exception Fault.Injected { site; scope; hit; kind } ->
      Some (site, scope, hit, kind)
  | _ -> None

(* ---------- parsing ---------- *)

let test_parse_errors () =
  let bad text =
    match Fault.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse accepted %S" text
  in
  bad "";
  bad "nosuch.site";
  bad "solver.solve%2.0";
  bad "solver.solve%x";
  bad "solver.solve#0";
  bad "solver.solve#3-2";
  bad "solver.solve!sometimes";
  bad "seed=7";
  (* seed alone selects nothing *)
  bad "seed=zz;solver.solve"

let test_parse_ok () =
  let ok text =
    match Fault.parse text with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "parse rejected %S: %s" text msg
  in
  List.iter (fun s -> ok s) Fault.sites;
  ok "seed=7;solver.solve@po:0#1";
  ok "solver.solve@po:3#2-4%0.5!transient";
  ok "cache.read!crash,cache.write#1";
  ok " solver.solve ; cegar.iter "

(* ---------- hits, ordinals, scopes ---------- *)

let test_disarmed_is_noop () =
  Fault.disable ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  for _ = 1 to 100 do
    Fault.hit "solver.solve"
  done

let test_hit_ordinals () =
  with_spec "solver.solve#2-3" @@ fun () ->
  Alcotest.(check bool) "hit 1 passes" true (injected (fun () -> Fault.hit "solver.solve") = None);
  (match injected (fun () -> Fault.hit "solver.solve") with
  | Some (site, _, hit, _) ->
      Alcotest.(check int) "ordinal" 2 hit;
      Alcotest.(check string) "site" "solver.solve" site
  | None -> Alcotest.fail "hit 2 should inject");
  Alcotest.(check bool) "hit 3 injects" true (injected (fun () -> Fault.hit "solver.solve") <> None);
  Alcotest.(check bool) "hit 4 passes" true (injected (fun () -> Fault.hit "solver.solve") = None)

let test_scope_filter () =
  with_spec "cegar.iter@po:1#1" @@ fun () ->
  Fault.with_scope "po:0" (fun () -> Fault.hit "cegar.iter");
  (match
     Fault.with_scope "po:1" (fun () ->
         injected (fun () -> Fault.hit "cegar.iter"))
   with
  | Some (_, scope, hit, _) ->
      Alcotest.(check string) "scope" "po:1" scope;
      (* po:0's hit did not consume po:1's ordinal *)
      Alcotest.(check int) "per-scope ordinal" 1 hit
  | None -> Alcotest.fail "scoped hit should inject");
  Alcotest.(check int) "po:0 counted" 1 (Fault.count ~site:"cegar.iter" ~scope:"po:0")

let test_scope_restored_on_raise () =
  (try
     Fault.with_scope "po:9" (fun () -> raise (Failure "boom"))
   with Failure _ -> ());
  Alcotest.(check string) "scope restored" "" (Fault.current_scope ())

let test_kinds () =
  (with_spec "cache.write#1!transient" @@ fun () ->
   match injected (fun () -> Fault.hit "cache.write") with
   | Some (_, _, _, kind) ->
       Alcotest.(check bool) "transient" true (kind = Fault.Transient)
   | None -> Alcotest.fail "should inject");
  with_spec "cache.write#1" @@ fun () ->
  match injected (fun () -> Fault.hit "cache.write") with
  | Some (_, _, _, kind) ->
      Alcotest.(check bool) "crash default" true (kind = Fault.Crash)
  | None -> Alcotest.fail "should inject"

let test_probability_endpoints () =
  (with_spec "pool.dispatch%0.0" @@ fun () ->
   for _ = 1 to 50 do
     Fault.hit "pool.dispatch"
   done);
  with_spec "pool.dispatch%1.0" @@ fun () ->
  Alcotest.(check bool) "p=1 injects" true (injected (fun () -> Fault.hit "pool.dispatch") <> None)

let test_probability_deterministic () =
  let run () =
    with_spec "seed=11;solver.solve%0.5" @@ fun () ->
    List.init 64 (fun _ -> injected (fun () -> Fault.hit "solver.solve") <> None)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same draw sequence" true (a = b);
  Alcotest.(check bool) "mixed outcomes" true
    (List.mem true a && List.mem false a)

let test_uniform_deterministic () =
  let u = Fault.uniform ~seed:3 [ "retry"; "po:1"; "2" ] in
  Alcotest.(check bool) "in range" true (u >= 0.0 && u < 1.0);
  Alcotest.(check (float 0.0)) "stable" u
    (Fault.uniform ~seed:3 [ "retry"; "po:1"; "2" ]);
  Alcotest.(check bool) "seed matters" true
    (u <> Fault.uniform ~seed:4 [ "retry"; "po:1"; "2" ]);
  Alcotest.(check bool) "keys matter" true
    (u <> Fault.uniform ~seed:3 [ "retry"; "po:1"; "3" ])

(* ---------- integration: the solver's injection point ---------- *)

let test_solver_site () =
  with_spec "solver.solve#1" @@ fun () ->
  let s = Step_sat.Solver.create () in
  (match Step_sat.Solver.solve s with
  | exception Fault.Injected { site; _ } ->
      Alcotest.(check string) "site" "solver.solve" site
  | _ -> Alcotest.fail "solve should inject");
  (* second call survives: the clause fired only on hit 1 *)
  Alcotest.(check bool) "empty instance is sat" true
    (Step_sat.Solver.solve s = Step_sat.Solver.Sat)

let () =
  Alcotest.run "step_fault"
    [
      ( "parse",
        [
          Alcotest.test_case "rejects malformed" `Quick test_parse_errors;
          Alcotest.test_case "accepts grammar" `Quick test_parse_ok;
        ] );
      ( "hits",
        [
          Alcotest.test_case "disarmed noop" `Quick test_disarmed_is_noop;
          Alcotest.test_case "ordinals" `Quick test_hit_ordinals;
          Alcotest.test_case "scope filter" `Quick test_scope_filter;
          Alcotest.test_case "scope restored" `Quick test_scope_restored_on_raise;
          Alcotest.test_case "kinds" `Quick test_kinds;
          Alcotest.test_case "probability endpoints" `Quick test_probability_endpoints;
          Alcotest.test_case "probability deterministic" `Quick test_probability_deterministic;
          Alcotest.test_case "uniform deterministic" `Quick test_uniform_deterministic;
        ] );
      ( "integration",
        [ Alcotest.test_case "solver site" `Quick test_solver_site ] );
    ]
