(* Enumerates the 3^n sort assignments of support variables into A/B/C,
   skipping trivial ones, and decides each on f's truth table. *)
let partitions (p : Problem.t) =
  let support = Array.of_list p.Problem.support in
  let n = Array.length support in
  let rec build i xa xb xc acc =
    if i >= n then
      if xa = [] || xb = [] then acc
      else Partition.make ~xa ~xb ~xc :: acc
    else
      let v = support.(i) in
      build (i + 1) (v :: xa) xb xc
        (build (i + 1) xa (v :: xb) xc (build (i + 1) xa xb (v :: xc) acc))
  in
  build 0 [] [] [] []

let all_decomposable p g =
  partitions p
  |> List.filter (Check.decomposable_semantic p g)
  |> List.map Partition.canonical
  |> List.sort_uniq compare

let best ?(objective = Partition.disjointness_k) p g =
  let candidates = all_decomposable p g in
  List.fold_left
    (fun best part ->
      match best with
      | None -> Some part
      | Some b -> if objective part < objective b then Some part else best)
    None candidates
