(* Unit tests for the independent certificate checker (lib/cert) and the
   certificate builder (Step_core.Certify): hand-written LRAT/DRAT proofs
   accepted and corrupted ones rejected with the right PRF code, the
   solver's DRAT export replayed by the checker, model
   evaluation, JSON round-trips, and end-to-end certificates for small
   decomposition answers. *)

module Cert = Step_cert.Cert
module Diag = Step_lint.Diag
module Solver = Step_sat.Solver
module Lit = Step_sat.Lit
module Lrat = Step_sat.Lrat
module Aig = Step_aig.Aig
module Problem = Step_core.Problem
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Certify = Step_core.Certify

(* The verdict of a solve with no deadline, which cannot be [Unknown]. *)
let sat ?assumptions s =
  match Solver.solve ?assumptions s with
  | Solver.Sat -> true
  | Solver.Unsat -> false
  | Solver.Unknown -> Alcotest.fail "Unknown from a solve with no deadline"

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let check_bool = Alcotest.(check bool)

(* (x1) (-x1 x2) (-x2): unsat chain used by most checker tests *)
let chain_cnf = Cert.pack_cnf [ [ 1 ]; [ -1; 2 ]; [ -2 ] ]

let chain_lrat = "4 2 0 1 2 0\n5 0 4 3 0\n"

(* ---------- LRAT checking ---------- *)

let test_lrat_accepts () =
  check_bool "valid proof accepted" false
    (Diag.has_errors
       (Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf ~proof:chain_lrat
          ()))

let test_lrat_empty_clause_via_hints () =
  (* direct refutation: the empty clause hinted by all three inputs *)
  check_bool "direct empty clause accepted" false
    (Diag.has_errors
       (Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf
          ~proof:"4 0 1 2 3 0\n" ()))

let test_lrat_missing_empty_clause () =
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf ~proof:"4 2 0 1 2 0\n"
      ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF005" true (has_code "PRF005" d)

let test_lrat_bad_hints () =
  (* clause 4 = (x2) with hints that do not propagate to a conflict *)
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:(Cert.pack_cnf [ [ 1; 2 ] ])
      ~proof:"2 2 0 1 0\n" ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF006" true (has_code "PRF006" d)

let test_lrat_id_ordering () =
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf
      ~proof:"3 2 0 1 2 0\n" ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF003" true (has_code "PRF003" d)

let test_lrat_undefined_reference () =
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf
      ~proof:"4 0 1 2 99 0\n" ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF004" true (has_code "PRF004" d)

let test_lrat_deleted_reference () =
  (* delete clause 3, then try to use it *)
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf
      ~proof:"3 d 3 0\n4 0 1 2 3 0\n" ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF004" true (has_code "PRF004" d)

let test_lrat_syntax () =
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf ~proof:"pigeon\n" ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF001" true (has_code "PRF001" d)

let test_lrat_truncated () =
  let d =
    Cert.check_lrat ~item:"t" ~n_vars:2 ~cnf:chain_cnf ~proof:"4 2 0 1 2\n"
      ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF002" true (has_code "PRF002" d)

(* ---------- DRAT checking ---------- *)

let test_drat_accepts () =
  check_bool "valid proof accepted" false
    (Diag.has_errors
       (Cert.check_drat ~item:"t" ~n_vars:2 ~cnf:chain_cnf ~proof:"2 0\n0\n"
          ()))

let test_drat_non_rup () =
  (* (x2) is not RUP w.r.t. the satisfiable (x1 x2) *)
  let d =
    Cert.check_drat ~item:"t" ~n_vars:2 ~cnf:(Cert.pack_cnf [ [ 1; 2 ] ])
      ~proof:"2 0\n0\n"
      ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF006" true (has_code "PRF006" d)

let test_drat_missing_empty_clause () =
  let d =
    Cert.check_drat ~item:"t" ~n_vars:2 ~cnf:chain_cnf ~proof:"2 0\n" ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF005" true (has_code "PRF005" d)

let test_drat_deletion_line () =
  (* deleting a clause before the final conflict still checks when the
     conflict does not need it *)
  check_bool "deletion respected" false
    (Diag.has_errors
       (Cert.check_drat ~item:"t" ~n_vars:2
          ~cnf:(Cert.pack_cnf [ [ 1 ]; [ -1; 2 ]; [ -2 ]; [ 1; 2 ] ])
          ~proof:"d 1 2 0\n2 0\n0\n" ()))

(* ---------- model checking ---------- *)

let test_model_ok () =
  check_bool "satisfying model accepted" false
    (Diag.has_errors
       (Cert.check_model ~item:"t" ~cnf:(Cert.pack_cnf [ [ 1; 2 ]; [ -1; 2 ] ])
          ~model:[ -1; 2 ] ()))

let test_model_falsified_clause () =
  let d =
    Cert.check_model ~item:"t" ~cnf:(Cert.pack_cnf [ [ 1; 2 ]; [ -1; 2 ] ])
      ~model:[ 1; -2 ]
      ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF007" true (has_code "PRF007" d)

let test_model_contradictory () =
  let d =
    Cert.check_model ~item:"t" ~cnf:(Cert.pack_cnf [ [ 1 ] ]) ~model:[ 1; -1 ]
      ()
  in
  check_bool "rejected" true (Diag.has_errors d);
  check_bool "PRF007" true (has_code "PRF007" d)

(* ---------- solver export -> independent checker round trips ---------- *)

let solver_of_dimacs n cnf =
  let s = Solver.create ~proof:true () in
  Solver.ensure_var s (n - 1);
  List.iter
    (fun c -> ignore (Solver.add_clause s (List.map Lit.of_dimacs c)))
    cnf;
  s

let random_cnf st n =
  let n_clauses = 3 + Random.State.int st (4 * n) in
  List.init n_clauses (fun _ ->
      let len = 1 + Random.State.int st 3 in
      List.init len (fun _ ->
          let v = 1 + Random.State.int st n in
          if Random.State.bool st then v else -v))

let test_lrat_export_roundtrip () =
  let n = 5 in
  let unsat = ref 0 in
  for round = 1 to 150 do
    let st = Random.State.make [| 42; round |] in
    let cnf = random_cnf st n in
    let s = solver_of_dimacs n cnf in
    if not (sat s) then begin
      incr unsat;
      let e = Lrat.export s in
      if
        Diag.has_errors
          (Cert.check_lrat ~item:"rt" ~n_vars:e.Lrat.n_vars
             ~cnf:(Cert.pack_cnf e.Lrat.cnf)
             ~proof:e.Lrat.proof ())
      then Alcotest.failf "round %d: exported LRAT rejected" round
    end
  done;
  check_bool "some rounds were unsat" true (!unsat > 10)

let drat_ok ~n_vars cnf proof =
  not
    (Diag.has_errors
       (Cert.check_drat ~item:"drat" ~n_vars ~cnf:(Cert.pack_cnf cnf) ~proof
          ()))

let test_drat_pigeonhole () =
  (* 3 pigeons, 2 holes: p_{i,h} = DIMACS var 2i + h + 1 *)
  let v i h = (2 * i) + h + 1 in
  let cnf =
    List.init 3 (fun i -> [ v i 0; v i 1 ])
    @ List.concat_map
        (fun h ->
          [
            [ -v 0 h; -v 1 h ]; [ -v 0 h; -v 2 h ]; [ -v 1 h; -v 2 h ];
          ])
        [ 0; 1 ]
  in
  let s = solver_of_dimacs 6 cnf in
  check_bool "unsat" false (sat s);
  let proof = Step_sat.Drat.export_string s in
  check_bool "certificate checks" true (drat_ok ~n_vars:6 cnf proof);
  (* corrupted traces must be rejected: a non-RUP clause w.r.t. a
     satisfiable formula, and a trace without the empty clause *)
  check_bool "non-RUP clause rejected" false
    (drat_ok ~n_vars:2 [ [ 1; 2 ] ] "1 0\n0\n");
  let without_empty =
    String.split_on_char '\n' proof
    |> List.filter (fun l -> String.trim l <> "0")
    |> String.concat "\n"
  in
  check_bool "missing empty clause rejected" false
    (drat_ok ~n_vars:6 cnf without_empty)

(* Forcing a learned-clause database reduction mid-solve makes the
   exported trace carry deletion lines, which must still replay. *)
let test_drat_deletions () =
  let n = 6 in
  (* php(n+1, n): n+1 pigeons, n holes — unsat, with enough conflicts to
     accumulate a learnt DB worth reducing *)
  let v i h = (i * n) + h + 1 in
  let cnf =
    List.init (n + 1) (fun i -> List.init n (fun h -> v i h))
    @ List.concat
        (List.init n (fun h ->
             List.concat
               (List.init (n + 1) (fun i ->
                    List.init i (fun j -> [ -v i h; -v j h ])))))
  in
  let n_vars = n * (n + 1) in
  let s = solver_of_dimacs n_vars cnf in
  (* solve under an assumption first so learnts pile up without
     finalizing the refutation, then force the reduction *)
  ignore (sat ~assumptions:[ Lit.of_dimacs (v 0 0) ] s);
  Solver.reduce_learnts s;
  check_bool "unsat" false (sat s);
  let proof = Step_sat.Drat.export_string s in
  check_bool "trace has deletion lines" true
    (List.exists
       (String.starts_with ~prefix:"d ")
       (String.split_on_char '\n' proof));
  check_bool "trace with deletions checks" true (drat_ok ~n_vars cnf proof)

(* An empty input clause refutes the formula by itself: both exporters
   must give the one-line proof of the empty clause, not raise. *)
let test_empty_input_clause () =
  let cnf = [ [ 1 ]; []; [ -1; 2 ] ] in
  let s = solver_of_dimacs 2 cnf in
  check_bool "unsat" false (sat s);
  let proof = Step_sat.Drat.export_string s in
  Alcotest.(check string) "drat is the empty clause" "0\n" proof;
  check_bool "drat checks" true (drat_ok ~n_vars:2 cnf proof);
  let e = Lrat.export s in
  check_bool "lrat checks" false
    (Diag.has_errors
       (Cert.check_lrat ~item:"empty" ~n_vars:e.Lrat.n_vars
          ~cnf:(Cert.pack_cnf e.Lrat.cnf) ~proof:e.Lrat.proof ()))

let gen_cnf =
  let open QCheck2.Gen in
  let* n_vars = int_range 1 10 in
  let* n_clauses = int_range 1 42 in
  let gen_lit =
    map2 (fun p v -> if p then v else -v) bool (int_range 1 n_vars)
  in
  let+ clauses =
    list_size (pure n_clauses) (list_size (int_range 1 4) gen_lit)
  in
  (n_vars, clauses)

let prop_drat_certificates_check =
  QCheck2.Test.make ~count:250 ~name:"drat certificates always check"
    ~print:(fun (n, cnf) ->
      Printf.sprintf "vars=%d cnf=%s" n
        (String.concat " ; "
           (List.map (fun c -> String.concat " " (List.map string_of_int c)) cnf)))
    gen_cnf
    (fun (n, cnf) ->
      let s = solver_of_dimacs n cnf in
      sat s || drat_ok ~n_vars:n cnf (Step_sat.Drat.export_string s))

(* ---------- certificate JSON round trip ---------- *)

let sample_cert =
  {
    Cert.po = "y0";
    gate = "or";
    method_ = "STEP-QD";
    partition = Some ([ 0; 1 ], [ 2 ], [ 3 ]);
    obligations =
      [
        {
          Cert.label = "prop1";
          n_vars = 2;
          cnf = chain_cnf;
          answer = Cert.Unsat { format = Cert.Lrat; proof = chain_lrat };
        };
        {
          Cert.label = "witness";
          n_vars = 2;
          cnf = Cert.pack_cnf [ [ 1; 2 ] ];
          answer = Cert.Sat [ 1; -2 ];
        };
      ];
  }

let test_json_roundtrip () =
  match Cert.of_json (Cert.to_json sample_cert) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok c ->
      check_bool "round trip equal" true (c = sample_cert);
      check_bool "round trip checks" false
        (Diag.has_errors (Cert.check c))

let test_save_load () =
  let file = Filename.temp_file "cert" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cert.save file sample_cert;
      match Cert.load file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok c -> check_bool "save/load equal" true (c = sample_cert))

let test_packed_cnf () =
  let clauses = [ [ 1; -2 ]; []; [ 3 ] ] in
  check_bool "layout" true (Cert.pack_cnf clauses = [| 1; -2; 0; 0; 3; 0 |]);
  check_bool "unpack inverts pack" true
    (Cert.unpack_cnf (Cert.pack_cnf clauses) = clauses);
  check_bool "unterminated tail is a clause" true
    (Cert.unpack_cnf [| 1; 0; 2 |] = [ [ 1 ]; [ 2 ] ]);
  (* the JSON form keeps nested DIMACS clauses, so certificate files and
     cache entries written before packing still load *)
  let json = Step_obs.Json.to_string (Cert.to_json sample_cert) in
  let nested = {|"cnf":[[1],[-1,2],[-2]]|} in
  let rec contains i =
    i + String.length nested <= String.length json
    && (String.sub json i (String.length nested) = nested || contains (i + 1))
  in
  check_bool "nested cnf in JSON" true (contains 0)

let test_of_json_rejects_garbage () =
  (match Cert.of_string "{\"po\": 3}" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Cert.of_string "not json" with
  | Ok _ -> Alcotest.fail "non-JSON accepted"
  | Error _ -> ());
  (* a 0 inside a clause would split that clause once packed *)
  let json = Step_obs.Json.to_string (Cert.to_json sample_cert) in
  let sub = "[-1,2]" in
  let rec find i =
    if String.sub json i (String.length sub) = sub then i else find (i + 1)
  in
  let i = find 0 in
  let bad =
    String.sub json 0 i ^ "[-1,0,2]"
    ^ String.sub json (i + String.length sub)
        (String.length json - i - String.length sub)
  in
  match Cert.of_string bad with
  | Ok _ -> Alcotest.fail "literal 0 inside a clause accepted"
  | Error _ -> ()

(* ---------- Certify: end-to-end certificates ---------- *)

(* f = a AND b, decomposed by the AND gate with XA = {a}, XB = {b} *)
let test_certify_decomposed () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let p = Problem.of_edge m (Aig.and_ m a b) in
  let part =
    match p.Problem.support with
    | [ va; vb ] -> Partition.make ~xa:[ va ] ~xb:[ vb ] ~xc:[]
    | s -> Alcotest.failf "unexpected support size %d" (List.length s)
  in
  match
    Certify.for_po ~po:"t" ~method_name:"test" p Gate.And_gate (Some part)
  with
  | None -> Alcotest.fail "expected a certificate"
  | Some (cert, ct) ->
      check_bool "checker accepted" true ct.Certify.ok;
      check_bool "prop1 obligation" true
        (List.exists (fun o -> o.Cert.label = "prop1") cert.Cert.obligations);
      check_bool "proof bytes counted" true (ct.Certify.proof_bytes > 0)

(* f = a XOR b is not AND-decomposable: the indecomposable answer gets a
   SAT witness obligation *)
let test_certify_witness () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let p = Problem.of_edge m (Aig.xor_ m a b) in
  match Certify.for_po ~po:"t" ~method_name:"test" p Gate.And_gate None with
  | None -> Alcotest.fail "expected a witness certificate"
  | Some (cert, ct) ->
      check_bool "checker accepted" true ct.Certify.ok;
      check_bool "witness obligation" true
        (List.exists (fun o -> o.Cert.label = "witness") cert.Cert.obligations)

(* a Refuted claim (AND-decomposing XOR on a balanced split) raises *)
let test_certify_refuted () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let p = Problem.of_edge m (Aig.xor_ m a b) in
  let part =
    match p.Problem.support with
    | [ va; vb ] -> Partition.make ~xa:[ va ] ~xb:[ vb ] ~xc:[]
    | _ -> assert false
  in
  match
    Certify.for_po ~po:"t" ~method_name:"test" p Gate.And_gate (Some part)
  with
  | exception Certify.Refuted _ -> ()
  | Some _ | None -> Alcotest.fail "expected Refuted"

let test_certify_tampered () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let p = Problem.of_edge m (Aig.and_ m a b) in
  let part =
    match p.Problem.support with
    | [ va; vb ] -> Partition.make ~xa:[ va ] ~xb:[ vb ] ~xc:[]
    | _ -> assert false
  in
  match
    Certify.for_po ~po:"t" ~method_name:"test" p Gate.And_gate (Some part)
  with
  | None -> Alcotest.fail "expected a certificate"
  | Some (cert, ct) ->
      let cut o =
        match o.Cert.answer with
        | Cert.Unsat { format; proof } ->
            let cut = String.length proof / 2 in
            {
              o with
              Cert.answer = Cert.Unsat { format; proof = String.sub proof 0 cut };
            }
        | Cert.Sat _ -> o
      in
      let tampered =
        { cert with Cert.obligations = List.map cut cert.Cert.obligations }
      in
      let rechecked = Certify.of_cert tampered in
      check_bool "tampered rejected" false rechecked.Certify.ok;
      (* an appended obligation is checked on its own and folded in *)
      let ob = List.hd cert.Cert.obligations in
      let more = Certify.add_obligation ct ~po:"t" ob in
      check_bool "valid obligation kept ok" true more.Certify.ok;
      Alcotest.(check int) "proof bytes added"
        (2 * ct.Certify.proof_bytes) more.Certify.proof_bytes;
      check_bool "tampered obligation rejected" false
        (Certify.add_obligation ct ~po:"t" (cut ob)).Certify.ok

(* ---------- Certify: XOR answers on the four-point miter ---------- *)

(* f = g(a0, a1, c) ⊕ h(b0, b1, c), planted XOR with XA = {a0, a1},
   XB = {b0, b1}, XC = {c} *)
let planted_xor () =
  let m = Aig.create () in
  let a0 = Aig.fresh_input m and a1 = Aig.fresh_input m in
  let b0 = Aig.fresh_input m and b1 = Aig.fresh_input m in
  let c = Aig.fresh_input m in
  let g = Aig.or_ m (Aig.and_ m a0 c) a1 in
  let h = Aig.and_ m b0 (Aig.not_ (Aig.or_ m b1 c)) in
  let p = Problem.of_edge m (Aig.xor_ m g h) in
  let idx = Aig.input_index m in
  let part =
    Partition.make ~xa:[ idx a0; idx a1 ] ~xb:[ idx b0; idx b1 ]
      ~xc:[ idx c ]
  in
  (p, part)

let xor_cert p part =
  match
    Certify.for_po ~po:"t" ~method_name:"test" p Gate.Xor_gate (Some part)
  with
  | None -> Alcotest.fail "expected a certificate"
  | Some (cert, ct) -> (
      check_bool "checker accepted" true ct.Certify.ok;
      match cert.Cert.obligations with
      | [ ({ Cert.label = "prop1"; answer = Cert.Unsat _; _ } as ob) ] ->
          check_bool "non-empty cnf" true (Array.length ob.Cert.cnf > 0);
          check_bool "independent check" false
            (Diag.has_errors (Cert.check_obligation ~po:"t" ob));
          ob
      | _ -> Alcotest.fail "expected one prop1 refutation")

let test_certify_xor_decomposed () =
  let p, part = planted_xor () in
  ignore (xor_cert p part)

(* a ∧ b has a nonzero four-point difference across {a} × {b} *)
let test_certify_xor_refuted () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let p = Problem.of_edge m (Aig.and_ m a b) in
  let part =
    Partition.make ~xa:[ Aig.input_index m a ] ~xb:[ Aig.input_index m b ]
      ~xc:[]
  in
  match
    Certify.for_po ~po:"t" ~method_name:"test" p Gate.Xor_gate (Some part)
  with
  | exception Certify.Refuted _ -> ()
  | Some _ | None -> Alcotest.fail "expected Refuted"

(* a ∧ b is not XOR-decomposable: its witness model satisfies the CNF *)
let test_certify_xor_witness () =
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m in
  let p = Problem.of_edge m (Aig.and_ m a b) in
  match Certify.for_po ~po:"t" ~method_name:"test" p Gate.Xor_gate None with
  | None -> Alcotest.fail "expected a witness certificate"
  | Some (cert, ct) -> (
      check_bool "checker accepted" true ct.Certify.ok;
      match cert.Cert.obligations with
      | [ { Cert.label = "witness"; cnf; answer = Cert.Sat model; _ } ] ->
          check_bool "model checks" false
            (Diag.has_errors (Cert.check_model ~item:"w" ~cnf ~model ()))
      | _ -> Alcotest.fail "expected one witness model")

(* Whether the four points of [part] on f's cone, pinned inputs shared,
   XOR to constant false in a fresh manager. *)
let miter_folds (p : Problem.t) (part : Partition.t) =
  let m = Aig.create () in
  let fresh = Hashtbl.create 8 in
  let input k i =
    match Hashtbl.find_opt fresh (k, i) with
    | Some e -> e
    | None ->
        let e = Aig.fresh_input m in
        Hashtbl.replace fresh (k, i) e;
        e
  in
  (* point k reads the base input, x' on XA for k = 1, 3, x'' on XB for
     k = 2, 3 *)
  let point k =
    Aig.import m ~src:p.Problem.aig
      ~map_input:(fun i ->
        if List.mem i part.Partition.xa && k land 1 = 1 then input 1 i
        else if List.mem i part.Partition.xb && k land 2 = 2 then input 2 i
        else input 0 i)
      p.Problem.f
  in
  Aig.xor_list m (List.map point [ 0; 1; 2; 3 ]) = Aig.f

(* f = g(c) ⊕ h(b, c) with XA empty: the first two points and the last
   two merge, so the structural hash folds the miter to constant false;
   the obligation still ships the parity clauses and their refutation. *)
let test_certify_xor_folded () =
  let m = Aig.create () in
  let b = Aig.fresh_input m and c = Aig.fresh_input m in
  let f = Aig.xor_ m (Aig.not_ c) (Aig.or_ m b c) in
  let p = Problem.of_edge m f in
  let part =
    Partition.make ~xa:[] ~xb:[ Aig.input_index m b ]
      ~xc:[ Aig.input_index m c ]
  in
  check_bool "miter folds" true (miter_folds p part);
  ignore (xor_cert p part);
  (* every input pinned: all four points are one literal *)
  let all_c = Partition.make ~xa:[] ~xb:[] ~xc:p.Problem.support in
  check_bool "pinned miter folds" true (miter_folds p all_c);
  ignore (xor_cert p all_c)

(* Flipping the proof's final byte, the 0 that ends the empty clause's
   hints, leaves the refutation unterminated. *)
let test_certify_xor_flipped_byte () =
  let p, part = planted_xor () in
  let ob = xor_cert p part in
  match ob.Cert.answer with
  | Cert.Unsat { format; proof } ->
      let b = Bytes.of_string proof in
      let last = String.rindex proof '0' in
      Bytes.set b last '1';
      let flipped =
        { ob with Cert.answer = Cert.Unsat { format; proof = Bytes.to_string b } }
      in
      check_bool "flipped byte rejected" true
        (Diag.has_errors (Cert.check_obligation ~po:"t" flipped))
  | Cert.Sat _ -> Alcotest.fail "expected a refutation"

let () =
  Alcotest.run "step_cert"
    [
      ( "lrat",
        [
          Alcotest.test_case "accepts valid" `Quick test_lrat_accepts;
          Alcotest.test_case "direct empty clause" `Quick
            test_lrat_empty_clause_via_hints;
          Alcotest.test_case "missing empty clause" `Quick
            test_lrat_missing_empty_clause;
          Alcotest.test_case "bad hints" `Quick test_lrat_bad_hints;
          Alcotest.test_case "id ordering" `Quick test_lrat_id_ordering;
          Alcotest.test_case "undefined reference" `Quick
            test_lrat_undefined_reference;
          Alcotest.test_case "deleted reference" `Quick
            test_lrat_deleted_reference;
          Alcotest.test_case "syntax" `Quick test_lrat_syntax;
          Alcotest.test_case "truncated" `Quick test_lrat_truncated;
        ] );
      ( "drat",
        [
          Alcotest.test_case "accepts valid" `Quick test_drat_accepts;
          Alcotest.test_case "non-RUP addition" `Quick test_drat_non_rup;
          Alcotest.test_case "missing empty clause" `Quick
            test_drat_missing_empty_clause;
          Alcotest.test_case "deletion line" `Quick test_drat_deletion_line;
          Alcotest.test_case "pigeonhole" `Quick test_drat_pigeonhole;
          Alcotest.test_case "deletions after reduce" `Quick
            test_drat_deletions;
          Alcotest.test_case "empty input clause" `Quick
            test_empty_input_clause;
        ] );
      ( "model",
        [
          Alcotest.test_case "accepts satisfying" `Quick test_model_ok;
          Alcotest.test_case "falsified clause" `Quick
            test_model_falsified_clause;
          Alcotest.test_case "contradictory" `Quick test_model_contradictory;
        ] );
      ( "export",
        [
          Alcotest.test_case "solver LRAT round trip" `Quick
            test_lrat_export_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "packed cnf" `Quick test_packed_cnf;
          Alcotest.test_case "rejects garbage" `Quick
            test_of_json_rejects_garbage;
        ] );
      ( "certify",
        [
          Alcotest.test_case "decomposed" `Quick test_certify_decomposed;
          Alcotest.test_case "witness" `Quick test_certify_witness;
          Alcotest.test_case "refuted claim" `Quick test_certify_refuted;
          Alcotest.test_case "tampered proof" `Quick test_certify_tampered;
          Alcotest.test_case "xor decomposed" `Quick
            test_certify_xor_decomposed;
          Alcotest.test_case "xor refuted claim" `Quick
            test_certify_xor_refuted;
          Alcotest.test_case "xor witness" `Quick test_certify_xor_witness;
          Alcotest.test_case "xor folded miter" `Quick
            test_certify_xor_folded;
          Alcotest.test_case "xor flipped proof byte" `Quick
            test_certify_xor_flipped_byte;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_drat_certificates_check ] );
    ]
