module Aig = Step_aig.Aig
module Gate = Step_core.Gate
module Partition = Step_core.Partition
module Problem = Step_core.Problem

let build ?(max_nodes = 200_000) (p : Problem.t) =
  let n =
    match List.rev p.Problem.support with [] -> 0 | top :: _ -> top + 1
  in
  let man = Bdd.create ~max_nodes n in
  let f = Bdd.of_aig man p.Problem.aig p.Problem.f in
  (man, f)

let halves man f g (part : Partition.t) =
  match g with
  | Gate.Or_gate ->
      (Bdd.forall man part.Partition.xb f, Bdd.forall man part.Partition.xa f)
  | Gate.And_gate ->
      (Bdd.exists man part.Partition.xb f, Bdd.exists man part.Partition.xa f)
  | Gate.Xor_gate ->
      let fa =
        List.fold_left (fun f v -> Bdd.cofactor man v false f) f
          part.Partition.xb
      in
      let f_a0 =
        List.fold_left (fun f v -> Bdd.cofactor man v false f) f
          part.Partition.xa
      in
      let f_ab0 =
        List.fold_left (fun f v -> Bdd.cofactor man v false f) f_a0
          part.Partition.xb
      in
      (fa, Bdd.xor_ man f_a0 f_ab0)

let combine man g a b =
  match g with
  | Gate.Or_gate -> Bdd.or_ man a b
  | Gate.And_gate -> Bdd.and_ man a b
  | Gate.Xor_gate -> Bdd.xor_ man a b

let decomposable ?max_nodes p g part =
  match build ?max_nodes p with
  | exception Bdd.Blowup -> None
  | man, f -> begin
      match halves man f g part with
      | exception Bdd.Blowup -> None
      | fa, fb -> begin
          match combine man g fa fb with
          | exception Bdd.Blowup -> None
          | h -> Some (h = f) (* canonical handles: equality is equivalence *)
        end
    end

(* BDD -> AIG via Shannon expansion along the BDD structure *)
let aig_of_bdd man aig node =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if n = Bdd.zero then Aig.f
    else if n = Bdd.one then Aig.t_
    else begin
      match Hashtbl.find_opt memo n with
      | Some e -> e
      | None ->
          let v =
            (* reconstruct (var, lo, hi) through cofactors on the handle *)
            match Bdd.support man n with
            | top :: _ -> top
            | [] -> assert false
          in
          let e_lo = go (Bdd.cofactor man v false n) in
          let e_hi = go (Bdd.cofactor man v true n) in
          let e = Aig.ite aig (Aig.input aig v) e_hi e_lo in
          Hashtbl.replace memo n e;
          e
    end
  in
  go node

let extract ?max_nodes p g part =
  match build ?max_nodes p with
  | exception Bdd.Blowup -> None
  | man, f -> begin
      match halves man f g part with
      | exception Bdd.Blowup -> None
      | fa, fb ->
          if combine man g fa fb <> f then None
          else begin
            let aig = p.Problem.aig in
            match (aig_of_bdd man aig fa, aig_of_bdd man aig fb) with
            | ea, eb -> Some (ea, eb)
            | exception Bdd.Blowup -> None
          end
    end
