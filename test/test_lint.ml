(* Tests for the in-memory checks (AIG views, partitions) and the
   diagnostics type: one seeded defect per rule, each caught with the
   expected code, plus clean artifacts staying clean. The text formats'
   rules are tested beside their readers (test_sat, test_qbf_mus,
   test_aig). *)

module Diag = Step_lint.Diag
module Lint = Step_lint.Lint

let codes diags = List.map (fun d -> d.Diag.code) diags

let has_code code diags = List.mem code (codes diags)

let check_has code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got %s)" code
       (String.concat "," (codes diags)))
    true (has_code code diags)

let check_clean what diags =
  Alcotest.(check int)
    (Printf.sprintf "%s clean (got %s)" what (String.concat "," (codes diags)))
    0 (List.length diags)

(* ---------- AIG manager views ---------- *)

let view_of nodes roots =
  {
    Lint.n_nodes = Array.length nodes;
    node = (fun id -> nodes.(id));
    roots;
  }

let test_aig_clean () =
  (* 3 = AND(x0, x1) over input nodes 1,2; root edge 6 *)
  let v =
    view_of [| Lint.Const; Lint.Input 0; Lint.Input 1; Lint.And (2, 4) |] [ 6 ]
  in
  check_clean "aig" (Lint.check_aig v)

let test_aig001_non_topological () =
  let v =
    view_of [| Lint.Const; Lint.Input 0; Lint.And (8, 2); Lint.Input 1 |] [ 4 ]
  in
  check_has "AIG001" (Lint.check_aig v)

let test_aig002_strash_duplicate () =
  let v =
    view_of
      [|
        Lint.Const; Lint.Input 0; Lint.Input 1; Lint.And (2, 4); Lint.And (2, 4);
      |]
      [ 6; 8 ]
  in
  check_has "AIG002" (Lint.check_aig v)

let test_aig003_unreachable () =
  let v =
    view_of
      [|
        Lint.Const; Lint.Input 0; Lint.Input 1; Lint.And (2, 4); Lint.And (3, 5);
      |]
      [ 6 ]
  in
  check_has "AIG003" (Lint.check_aig v)

let test_aig004_constant_fanin () =
  let v = view_of [| Lint.Const; Lint.Input 0; Lint.And (0, 2) |] [ 4 ] in
  check_has "AIG004" (Lint.check_aig v)

let test_aig004_unnormalized () =
  let v =
    view_of [| Lint.Const; Lint.Input 0; Lint.Input 1; Lint.And (4, 2) |] [ 6 ]
  in
  check_has "AIG004" (Lint.check_aig v)

(* ---------- partitions ---------- *)

let test_partition_clean () =
  check_clean "partition"
    (Lint.check_partition ~support:[ 0; 1; 2; 3 ] ~xa:[ 0; 1 ] ~xb:[ 2 ]
       ~xc:[ 3 ] ())

let test_par001_overlap () =
  check_has "PAR001"
    (Lint.check_partition ~support:[ 0; 1; 2 ] ~xa:[ 0; 1 ] ~xb:[ 1 ] ~xc:[ 2 ]
       ())

let test_par002_uncovered () =
  check_has "PAR002"
    (Lint.check_partition ~support:[ 0; 1; 2 ] ~xa:[ 0 ] ~xb:[ 1 ] ~xc:[] ())

let test_par002_outside_support () =
  check_has "PAR002"
    (Lint.check_partition ~support:[ 0; 1 ] ~xa:[ 0 ] ~xb:[ 1 ] ~xc:[ 9 ] ())

let test_par003_symmetry () =
  check_has "PAR003"
    (Lint.check_partition ~support:[ 0; 1; 2 ] ~xa:[ 0 ] ~xb:[ 1; 2 ] ~xc:[] ())

(* ---------- diagnostics rendering ---------- *)

let test_render_text () =
  let d = Diag.error ~file:"f.cnf" ~line:3 ~code:"CNF001" "boom" in
  Alcotest.(check string)
    "text" "f.cnf:3: error CNF001: boom" (Diag.to_text d)

let test_summary () =
  let ds =
    [
      Diag.error ~code:"X001" "a";
      Diag.warning ~code:"X002" "b";
      Diag.warning ~code:"X002" "c";
    ]
  in
  Alcotest.(check string) "summary" "1 error, 2 warnings" (Diag.summary ds);
  Alcotest.(check string) "clean" "clean" (Diag.summary [])

let test_json_roundtrip () =
  let d = Diag.warning ~file:"a.blif" ~item:"y" ~code:"BLF003" "dup" in
  let j = Step_obs.Json.to_string (Diag.to_json d) in
  let open Step_obs.Json in
  let parsed = of_string j in
  Alcotest.(check (option string))
    "code" (Some "BLF003")
    (to_string_opt (member "code" parsed));
  Alcotest.(check (option string))
    "severity" (Some "warning")
    (to_string_opt (member "severity" parsed))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "step_lint"
    [
      ( "aig",
        [
          tc "clean" test_aig_clean;
          tc "AIG001 non-topological" test_aig001_non_topological;
          tc "AIG002 strash duplicate" test_aig002_strash_duplicate;
          tc "AIG003 unreachable" test_aig003_unreachable;
          tc "AIG004 constant fanin" test_aig004_constant_fanin;
          tc "AIG004 unnormalized order" test_aig004_unnormalized;
        ] );
      ( "partition",
        [
          tc "clean" test_partition_clean;
          tc "PAR001 overlap" test_par001_overlap;
          tc "PAR002 uncovered" test_par002_uncovered;
          tc "PAR002 outside support" test_par002_outside_support;
          tc "PAR003 symmetry" test_par003_symmetry;
        ] );
      ( "diag",
        [
          tc "text rendering" test_render_text;
          tc "summary" test_summary;
          tc "json" test_json_roundtrip;
        ] );
    ]
