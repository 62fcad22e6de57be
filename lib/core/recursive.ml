module Aig = Step_aig.Aig

type tree =
  | Leaf of Aig.lit
  | Node of Gate.t * Partition.t * tree * tree

type stats = {
  gates : int;
  leaves : int;
  depth : int;
  max_leaf_support : int;
  total_leaf_support : int;
}

type config = {
  method_ : Method.t;
  gates : Gate.t list;
  stop_support : int;
  per_step_budget : float;
  max_depth : int;
}

let default_config =
  {
    method_ = Method.Qd;
    gates = Gate.all;
    stop_support = 4;
    per_step_budget = 5.0;
    max_depth = 32;
  }

(* one decomposition step: first gate that decomposes non-trivially *)
let step config (p : Problem.t) =
  let rec try_gates = function
    | [] -> None
    | gate :: rest -> begin
        let r =
          Method.run ~time_budget:config.per_step_budget config.method_ p gate
        in
        match r.Method.partition with
        | Some part when not (Partition.is_trivial part) -> begin
            match Extract.run p gate part with
            | e -> Some (gate, part, e.Extract.fa, e.Extract.fb)
            | exception (Aig.Blowup | Failure _) -> try_gates rest
          end
        | Some _ | None -> try_gates rest
      end
  in
  try_gates config.gates

let decompose ?(config = default_config) (p : Problem.t) =
  let aig = p.Problem.aig in
  let rec go depth f =
    let sub = Problem.of_edge aig f in
    if Problem.n_vars sub <= config.stop_support || depth >= config.max_depth
    then Leaf f
    else begin
      match step config sub with
      | None -> Leaf f
      | Some (gate, part, fa, fb) ->
          Node (gate, part, go (depth + 1) fa, go (depth + 1) fb)
    end
  in
  go 0 p.Problem.f

let rec rebuild aig = function
  | Leaf f -> f
  | Node (g, _, a, b) -> Gate.edge aig g (rebuild aig a) (rebuild aig b)

let stats_of aig tree =
  let rec go = function
    | Leaf f ->
        let s = List.length (Aig.support aig f) in
        { gates = 0; leaves = 1; depth = 0; max_leaf_support = s;
          total_leaf_support = s }
    | Node (_, _, a, b) ->
        let sa = go a and sb = go b in
        {
          gates = 1 + sa.gates + sb.gates;
          leaves = sa.leaves + sb.leaves;
          depth = 1 + max sa.depth sb.depth;
          max_leaf_support = max sa.max_leaf_support sb.max_leaf_support;
          total_leaf_support = sa.total_leaf_support + sb.total_leaf_support;
        }
  in
  go tree

let pp aig fmt tree =
  let rec go indent = function
    | Leaf f ->
        Format.fprintf fmt "%sleaf support={%s}@\n" indent
          (String.concat ","
             (List.map string_of_int (Aig.support aig f)))
    | Node (g, part, a, b) ->
        Format.fprintf fmt "%s%s %s@\n" indent (Gate.to_string g)
          (Partition.to_string part);
        go (indent ^ "  ") a;
        go (indent ^ "  ") b
  in
  go "" tree
