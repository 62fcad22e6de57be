(* The benchmark's workloads: each is a list of ops over circuits that
   are generated from the seed (planted cones, random DAGs) or fixed by
   name (the Table I stand-ins). An op is one primary-output
   decomposition through an engine session, or one QDIMACS solve. *)

module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Method = Step_core.Method
module Generators = Step_circuits.Generators
module Suite = Step_circuits.Suite

type kind =
  | Decompose of Method.t * Gate.t  (** [Engine.decompose_po] *)
  | Auto  (** [Engine.decompose_po_auto] under QD *)
  | Qdimacs
      (** OR model exported as QDIMACS, parsed back and solved by the
          generic 2QBF engine *)

type op = { circuit : int; po : int; kind : kind }

type t = {
  name : string;
  generate : seed:int -> Circuit.t array;
  ops : Circuit.t array -> op array;
  cache : bool;  (** one in-memory cache shared by every session of a pass *)
  certify : bool;
}

(* Never reached: the slowest op takes a few seconds. A budget that
   expired would make answers depend on machine speed. *)
let per_po_budget = 60.0

let kind_to_string = function
  | Decompose (m, g) ->
      Printf.sprintf "%s/%s" (Method.to_string m) (Gate.to_string g)
  | Auto -> "STEP-QD/auto"
  | Qdimacs -> "QDIMACS/OR"

(* ---------- inputs ---------- *)

(* The two largest Table I circuits add many slow outputs without adding
   a support size that the other sixteen lack. *)
let table16 =
  List.filter
    (fun n -> n <> "s15850.1" && n <> "s38584.1")
    (List.map fst Suite.paper_table1)

let table names = List.map (fun n -> Suite.by_name n) names

(* Supports spread over 8..24, split about 2:2:1 between XA, XB and XC. *)
let planted ~seed gate =
  List.init 20 (fun i ->
      let n = 8 + (16 * i / 19) in
      let nc = max 1 (n / 5) in
      let na = (n - nc + 1) / 2 in
      let nb = n - nc - na in
      (Generators.planted_cone ~seed:((seed * 1000) + i) ~na ~nb ~nc gate)
        .Generators.circuit)

(* Explicit sizes, so that every circuit is a different function and
   cache hits come from isomorphic cones across bit-widths, not from
   duplicated circuits. *)
let families ~seed =
  let sizes lo hi f = List.init (hi - lo + 1) (fun k -> f (lo + k)) in
  List.concat
    [
      sizes 2 8 Generators.ripple_adder;
      sizes 2 5 Generators.alu;
      sizes 1 4 Generators.mux_tree;
      sizes 2 8 Generators.comparator;
      sizes 1 3 Generators.barrel_shifter;
      sizes 4 12 Generators.priority_encoder;
      sizes 3 12 Generators.popcount;
      sizes 2 4 Generators.multiplier;
      sizes 3 10 Generators.gray_encoder;
      sizes 3 12 Generators.parity;
      sizes 2 4 Generators.decoder;
      List.init 12 (fun i ->
          Generators.random_dag ~seed:((seed * 1000) + i)
            ~n_inputs:(8 + (i mod 5))
            ~n_gates:(24 + (3 * i))
            ~n_outputs:(3 + (i mod 3)));
    ]

(* ---------- op lists ---------- *)

(* [f c sizes po] lists the ops of output [po] of circuit [c], whose
   outputs have the given support sizes. *)
let each_po circuits f =
  Array.to_list circuits
  |> List.mapi (fun c circuit ->
         let sizes = Circuit.support_sizes circuit in
         List.concat_map (f c sizes) (List.init (Array.length sizes) Fun.id))
  |> List.concat |> Array.of_list

let with_kinds kinds circuits =
  each_po circuits (fun c _ po ->
      List.map (fun kind -> { circuit = c; po; kind }) kinds)

(* The paper's Tables II-IV setting: all three cardinality targets, with
   the Composite and MI search strategies, bound by the CEGAR loop. *)
let or_exact =
  {
    name = "or-exact";
    generate =
      (fun ~seed -> Array.of_list (table table16 @ planted ~seed Gate.Or_gate));
    ops =
      with_kinds
        (List.map
           (fun m -> Decompose (m, Gate.Or_gate))
           [ Method.Qd; Method.Qb; Method.Qdb ]);
    cache = false;
    certify = false;
  }

(* The four-copy scaffold, where verification is the largest layer and
   the tail is heaviest. *)
let xor_exact =
  {
    name = "xor-exact";
    generate =
      (fun ~seed -> Array.of_list (table table16 @ planted ~seed Gate.Xor_gate));
    ops = with_kinds [ Decompose (Method.Qd, Gate.Xor_gate) ];
    cache = false;
    certify = false;
  }

(* LJH runs on the fifteen circuits with the smallest maximum support;
   the QDIMACS path on every output small enough for it (support 7
   already takes seconds there). *)
let ljh_circuits = 15

let qdimacs_max_support = 6

(* Never enters the QBF decomposition model: the workload that a change
   to the CEGAR loop must leave alone. Fixed by name, so it takes no
   seed. *)
let heuristics =
  {
    name = "heuristics";
    generate =
      (fun ~seed:_ -> Array.of_list (table (List.map fst Suite.paper_table1)));
    ops =
      (fun circuits ->
        let smallest =
          Array.mapi (fun i c -> (Circuit.max_support c, i)) circuits
          |> Array.to_list |> List.sort compare
          |> List.filteri (fun k _ -> k < ljh_circuits)
          |> List.map snd
        in
        each_po circuits (fun c sizes po ->
            let op kind = { circuit = c; po; kind } in
            List.map (fun g -> op (Decompose (Method.Mg, g))) Gate.all
            @ (if List.mem c smallest then
                 [ op (Decompose (Method.Ljh, Gate.Or_gate)) ]
               else [])
            @
            if sizes.(po) >= 2 && sizes.(po) <= qdimacs_max_support then
              [ op Qdimacs ]
            else []));
    cache = false;
    certify = false;
  }

(* Many small ops, where engine overhead, cache traffic and certificate
   generation versus re-checking show; the only workload on the
   auto-gate path and the only one with cache and certificates. The
   cache starts empty, as in a fresh [decompose --cache] run. *)
let families_auto =
  {
    name = "families-auto";
    generate = (fun ~seed -> Array.of_list (families ~seed));
    ops = with_kinds [ Auto ];
    cache = true;
    certify = true;
  }

let all = [ or_exact; xor_exact; heuristics; families_auto ]

let find name = List.find_opt (fun w -> w.name = name) all
