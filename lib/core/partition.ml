type t = { xa : int list; xb : int list; xc : int list }

let make ~xa ~xb ~xc =
  let xa = List.sort_uniq compare xa
  and xb = List.sort_uniq compare xb
  and xc = List.sort_uniq compare xc in
  (* the three lists are sorted: a merge walk checks disjointness in
     linear time (the old List.mem scan was quadratic) *)
  let rec disjoint l1 l2 =
    match (l1, l2) with
    | [], _ | _, [] -> true
    | x :: xs, y :: ys ->
        if x < y then disjoint xs l2
        else if y < x then disjoint l1 ys
        else false
  in
  if not (disjoint xa xb && disjoint xa xc && disjoint xb xc) then
    invalid_arg "Partition.make: overlapping sets";
  { xa; xb; xc }

let size p = List.length p.xa + List.length p.xb + List.length p.xc

let is_trivial p = p.xa = [] || p.xb = []

let disjointness p =
  float_of_int (List.length p.xc) /. float_of_int (size p)

let balancedness p =
  float_of_int (abs (List.length p.xa - List.length p.xb))
  /. float_of_int (size p)

let cost ?(weight_d = 1.0) ?(weight_b = 1.0) p =
  (weight_d *. disjointness p) +. (weight_b *. balancedness p)

let disjointness_k p = List.length p.xc

let balancedness_k p = abs (List.length p.xa - List.length p.xb)

let combined_k p = disjointness_k p + balancedness_k p

let canonical p =
  if List.length p.xa >= List.length p.xb then p
  else { xa = p.xb; xb = p.xa; xc = p.xc }

let lint ?name ~support p =
  Step_lint.Lint.check_partition ?name ~support ~xa:p.xa ~xb:p.xb ~xc:p.xc ()

let equal p q = p.xa = q.xa && p.xb = q.xb && p.xc = q.xc

let pp fmt p =
  let pl fmt l =
    Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int l))
  in
  Format.fprintf fmt "XA=%a XB=%a XC=%a" pl p.xa pl p.xb pl p.xc

let to_string p = Format.asprintf "%a" pp p
