(* Recursive bi-decomposition: drive a complex function all the way down
   to a tree of two-input gates over small leaf functions — the
   multi-level synthesis use the paper's introduction motivates — and
   compare the trees produced by heuristic (STEP-MG) and optimum
   (STEP-QD / STEP-QB) partitioning.

   Run with: dune exec examples/recursive_synthesis.exe *)

module Aig = Step_aig.Aig
module Gate = Step_core.Gate
module Problem = Step_core.Problem
module Method = Step_core.Method
module Recursive = Step_core.Recursive
module Verify = Step_core.Verify

let () =
  (* a 12-input function with layered structure *)
  let m = Aig.create () in
  let x = Array.init 12 (fun i -> Aig.fresh_input ~name:(Printf.sprintf "x%d" i) m) in
  let block a b c = Aig.or_ m (Aig.and_ m x.(a) x.(b)) (Aig.xor_ m x.(b) x.(c)) in
  let f =
    Aig.xor_ m
      (Aig.or_ m (block 0 1 2) (block 3 4 5))
      (Aig.and_ m (block 6 7 8) (block 9 10 11))
  in
  let p = Problem.of_edge m f in
  Printf.printf "function over %d inputs, %d AND nodes\n\n" (Problem.n_vars p)
    (Aig.cone_size m f);

  List.iter
    (fun (label, method_) ->
      let config =
        { Recursive.default_config with Recursive.method_; stop_support = 3 }
      in
      let t0 = Unix.gettimeofday () in
      let tree = Recursive.decompose ~config p in
      let cpu = Unix.gettimeofday () -. t0 in
      let s = Recursive.stats_of m tree in
      let rebuilt = Recursive.rebuild m tree in
      let ok = Verify.equivalent p Gate.Or_gate ~fa:rebuilt ~fb:Aig.f in
      (* f ≡ rebuilt ∨ 0 ⟺ f ≡ rebuilt *)
      Printf.printf
        "%-8s gates=%d leaves=%d depth=%d max-leaf-support=%d \
         total-leaf-support=%d  %.2fs  equivalent=%b\n"
        label s.Recursive.gates s.Recursive.leaves s.Recursive.depth
        s.Recursive.max_leaf_support s.Recursive.total_leaf_support cpu ok)
    [
      ("MG", Method.Mg);
      ("QD", Method.Qd);
      ("QB", Method.Qb);
    ];

  (* show one tree *)
  let tree =
    Recursive.decompose
      ~config:{ Recursive.default_config with Recursive.stop_support = 3 }
      p
  in
  Format.printf "\ndecomposition tree (STEP-QD):\n%a"
    (fun fmt -> Recursive.pp m fmt)
    tree
