(* Tests for the benchmark generators and the named suite: behavioural
   checks of arithmetic blocks against integer references, planted-cone
   ground truth, and suite determinism. *)

module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Blif = Step_aig.Blif
module Gate = Step_core.Gate
module Check = Step_core.Check
module Problem = Step_core.Problem
module Generators = Step_circuits.Generators
module Suite = Step_circuits.Suite

let eval_output c name env = Aig.eval c.Circuit.aig env (Circuit.find_output c name)

(* input valuation from an integer seen as a bit vector over input index *)
let env_of_bits bits i = (bits lsr i) land 1 = 1

let test_ripple_adder () =
  let n = 4 in
  let c = Generators.ripple_adder n in
  (* inputs: a0..a3 (idx 0..3), b0..b3 (idx 4..7), cin (idx 8) *)
  for a = 0 to (1 lsl n) - 1 do
    for b = 0 to (1 lsl n) - 1 do
      List.iter
        (fun cin ->
          let bits = a lor (b lsl n) lor (cin lsl (2 * n)) in
          let env = env_of_bits bits in
          let expected = a + b + cin in
          let got = ref 0 in
          for i = 0 to n - 1 do
            if eval_output c (Printf.sprintf "s%d" i) env then
              got := !got lor (1 lsl i)
          done;
          if eval_output c "cout" env then got := !got lor (1 lsl n);
          Alcotest.(check int)
            (Printf.sprintf "a=%d b=%d cin=%d" a b cin)
            expected !got)
        [ 0; 1 ]
    done
  done

let test_multiplier () =
  let n = 3 in
  let c = Generators.multiplier n in
  for a = 0 to (1 lsl n) - 1 do
    for b = 0 to (1 lsl n) - 1 do
      let bits = a lor (b lsl n) in
      let env = env_of_bits bits in
      let got = ref 0 in
      for i = 0 to (2 * n) - 1 do
        if eval_output c (Printf.sprintf "p%d" i) env then
          got := !got lor (1 lsl i)
      done;
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) !got
    done
  done

let test_comparator () =
  let n = 3 in
  let c = Generators.comparator n in
  for a = 0 to (1 lsl n) - 1 do
    for b = 0 to (1 lsl n) - 1 do
      let env = env_of_bits (a lor (b lsl n)) in
      Alcotest.(check bool) "eq" (a = b) (eval_output c "eq" env);
      Alcotest.(check bool) "lt" (a < b) (eval_output c "lt" env);
      Alcotest.(check bool) "gt" (a > b) (eval_output c "gt" env)
    done
  done

let test_parity () =
  let c = Generators.parity 5 in
  for bits = 0 to 31 do
    let expected = List.init 5 (fun i -> (bits lsr i) land 1) |> List.fold_left ( + ) 0 in
    Alcotest.(check bool)
      (Printf.sprintf "bits=%d" bits)
      (expected land 1 = 1)
      (eval_output c "p" (env_of_bits bits))
  done

let test_mux_tree () =
  let k = 3 in
  let c = Generators.mux_tree k in
  (* inputs: d0..d7 (idx 0..7), s0..s2 (idx 8..10) *)
  for data = 0 to 255 do
    for sel = 0 to 7 do
      let bits = data lor (sel lsl 8) in
      Alcotest.(check bool)
        (Printf.sprintf "data=%d sel=%d" data sel)
        ((data lsr sel) land 1 = 1)
        (eval_output c "y" (env_of_bits bits))
    done
  done

let test_decoder () =
  let k = 3 in
  let c = Generators.decoder k in
  for v = 0 to (1 lsl k) - 1 do
    for o = 0 to (1 lsl k) - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "v=%d o=%d" v o)
        (v = o)
        (eval_output c (Printf.sprintf "y%d" o) (env_of_bits v))
    done
  done

let test_alu () =
  let n = 3 in
  let c = Generators.alu n in
  (* inputs a (0..2), b (3..5), op0 (6), op1 (7) *)
  for a = 0 to 7 do
    for b = 0 to 7 do
      for op = 0 to 3 do
        let bits = a lor (b lsl n) lor (op lsl (2 * n)) in
        let env = env_of_bits bits in
        let expected =
          match op with
          | 0 -> a land b
          | 1 -> a lor b
          | 2 -> a lxor b
          | _ -> (a + b) land 7
        in
        let got = ref 0 in
        for i = 0 to n - 1 do
          if eval_output c (Printf.sprintf "r%d" i) env then
            got := !got lor (1 lsl i)
        done;
        Alcotest.(check int) (Printf.sprintf "a=%d b=%d op=%d" a b op) expected
          !got
      done
    done
  done

let test_barrel_shifter () =
  let k = 3 in
  let c = Generators.barrel_shifter k in
  let n = 1 lsl k in
  (* inputs: d0..d7 (idx 0..7), s0..s2 (idx 8..10) *)
  for data = 0 to 255 do
    if data mod 23 = 0 then
      for s = 0 to n - 1 do
        let bits = data lor (s lsl n) in
        let env = env_of_bits bits in
        for o = 0 to n - 1 do
          (* rotate-left by s: output o takes data bit (o - s) mod n *)
          Alcotest.(check bool)
            (Printf.sprintf "data=%d s=%d o=%d" data s o)
            ((data lsr ((o - s + n) mod n)) land 1 = 1)
            (eval_output c (Printf.sprintf "y%d" o) env)
        done
      done
  done

let test_priority_encoder () =
  let n = 6 in
  let c = Generators.priority_encoder n in
  for req = 0 to (1 lsl n) - 1 do
    let env = env_of_bits req in
    Alcotest.(check bool) "valid" (req <> 0) (eval_output c "valid" env);
    if req <> 0 then begin
      let expected =
        let rec top i = if (req lsr i) land 1 = 1 then i else top (i - 1) in
        top (n - 1)
      in
      let got = ref 0 in
      for b = 0 to 2 do
        if eval_output c (Printf.sprintf "q%d" b) env then
          got := !got lor (1 lsl b)
      done;
      Alcotest.(check int) (Printf.sprintf "req=%d" req) expected !got
    end
  done

let test_popcount () =
  let n = 6 in
  let c = Generators.popcount n in
  for bits = 0 to (1 lsl n) - 1 do
    let expected =
      List.init n (fun i -> (bits lsr i) land 1) |> List.fold_left ( + ) 0
    in
    let got = ref 0 in
    for b = 0 to 2 do
      if eval_output c (Printf.sprintf "c%d" b) (env_of_bits bits) then
        got := !got lor (1 lsl b)
    done;
    Alcotest.(check int) (Printf.sprintf "bits=%d" bits) expected !got
  done

let test_gray_encoder () =
  let n = 5 in
  let c = Generators.gray_encoder n in
  for v = 0 to (1 lsl n) - 1 do
    let expected = v lxor (v lsr 1) in
    let got = ref 0 in
    for b = 0 to n - 1 do
      if eval_output c (Printf.sprintf "g%d" b) (env_of_bits v) then
        got := !got lor (1 lsl b)
    done;
    Alcotest.(check int) (Printf.sprintf "v=%d" v) expected !got
  done

let test_c17 () =
  let c = Generators.c17 () in
  Alcotest.(check int) "inputs" 5 (Circuit.n_inputs c);
  Alcotest.(check int) "outputs" 2 (Circuit.n_outputs c);
  (* reference NAND model *)
  for bits = 0 to 31 do
    let v i = (bits lsr i) land 1 = 1 in
    let nand a b = not (a && b) in
    let g10 = nand (v 0) (v 2) in
    let g11 = nand (v 2) (v 3) in
    let g16 = nand (v 1) g11 in
    let g19 = nand g11 (v 4) in
    Alcotest.(check bool) "22" (nand g10 g16)
      (eval_output c "22" (env_of_bits bits));
    Alcotest.(check bool) "23" (nand g16 g19)
      (eval_output c "23" (env_of_bits bits))
  done

let test_random_dag_deterministic () =
  let mk () =
    Generators.random_dag ~seed:5 ~n_inputs:6 ~n_gates:20 ~n_outputs:3
  in
  Alcotest.(check string) "same blif" (Blif.to_string (mk ()))
    (Blif.to_string (mk ()))

let test_planted_ground_truth () =
  List.iter
    (fun gate ->
      List.iter
        (fun seed ->
          let pl = Generators.planted_cone ~seed ~na:3 ~nb:2 ~nc:2 gate in
          let p = Problem.of_output pl.Generators.circuit 0 in
          Alcotest.(check int)
            "full support" 7 (Problem.n_vars p);
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d" (Gate.to_string gate) seed)
            true
            (Check.decomposable p gate pl.Generators.truth))
        [ 1; 2; 3 ])
    Gate.all

let test_suite_table1 () =
  Alcotest.(check int) "18 circuits" 18 (List.length Suite.paper_table1);
  let s = Suite.paper_stats_of "C7552" in
  Alcotest.(check int) "C7552 paper inm" 194 s.Suite.p_inm;
  match Suite.paper_stats_of "nonexistent" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_suite_deterministic () =
  let a = Suite.by_name "mm9a" and b = Suite.by_name "mm9a" in
  Alcotest.(check string) "same circuit" (Blif.to_string a) (Blif.to_string b)

let test_suite_profile () =
  List.iter
    (fun (name, _) ->
      let c = Suite.by_name name in
      Alcotest.(check bool)
        (name ^ " has outputs") true
        (Circuit.n_outputs c >= 8);
      Alcotest.(check bool)
        (name ^ " max support sane") true
        (Circuit.max_support c >= 8 && Circuit.max_support c <= 40))
    Suite.paper_table1

let test_suite_has_decomposable_pos () =
  (* at least one OR-decomposable PO among the first few of a circuit *)
  let c = Suite.by_name "s38584.1" in
  let found = ref false in
  for i = 0 to Circuit.n_outputs c - 1 do
    if not !found then begin
      let p = Problem.of_output c i in
      if Problem.n_vars p >= 2 then
        match (Step_core.Mg.find p Gate.Or_gate).Step_core.Mg.partition with
        | Some _ -> found := true
        | None -> ()
    end
  done;
  Alcotest.(check bool) "some PO decomposable" true !found

let test_full_suite_size () =
  let l = Suite.full_suite () in
  Alcotest.(check int) "145 circuits" 145 (List.length l)

let () =
  Alcotest.run "step_circuits"
    [
      ( "generators",
        [
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder;
          Alcotest.test_case "multiplier" `Quick test_multiplier;
          Alcotest.test_case "comparator" `Quick test_comparator;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "mux tree" `Quick test_mux_tree;
          Alcotest.test_case "decoder" `Quick test_decoder;
          Alcotest.test_case "alu" `Quick test_alu;
          Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter;
          Alcotest.test_case "priority encoder" `Quick test_priority_encoder;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "gray encoder" `Quick test_gray_encoder;
          Alcotest.test_case "c17" `Quick test_c17;
          Alcotest.test_case "random dag deterministic" `Quick
            test_random_dag_deterministic;
          Alcotest.test_case "planted ground truth" `Quick
            test_planted_ground_truth;
        ] );
      ( "suite",
        [
          Alcotest.test_case "table1 metadata" `Quick test_suite_table1;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
          Alcotest.test_case "profile" `Quick test_suite_profile;
          Alcotest.test_case "decomposable POs exist" `Quick
            test_suite_has_decomposable_pos;
          Alcotest.test_case "full suite size" `Quick test_full_suite_size;
        ] );
    ]
