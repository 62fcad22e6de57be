module Veci = Step_util.Veci

(* Node table layout: two parallel int vectors [fanin0]/[fanin1].
   Node 0 is the constant (fanin0 = -2). Input nodes have fanin0 = -1 and
   store their input index in fanin1. AND nodes store their two fanin
   edges. Fanins always have smaller node ids, so ascending id order is a
   topological order; all traversals below exploit this instead of
   recursion.

   The structural-hash table is open-addressed over a flat [int array] of
   AND node ids (0 marks an empty slot: node 0 is the constant, never an
   AND). A probe compares the candidate's [fanin0]/[fanin1] entries, so a
   lookup allocates nothing. Every AND node is in the table, so its load
   is [n_ands]; it starts at 16 slots and doubles once more than half of
   them are used. *)

type lit = int

exception Blowup

type t = {
  fanin0 : Veci.t;
  fanin1 : Veci.t;
  inputs : Veci.t; (* input index -> node id *)
  mutable strash : int array; (* power-of-two slots of AND node ids *)
  names : (int, string) Hashtbl.t; (* input index -> name *)
}

let f = 0

let t_ = 1

let node_of e = e lsr 1

let is_complement e = e land 1 = 1

let not_ e = e lxor 1

let is_const e = node_of e = 0

let mk_edge node compl = (2 * node) + if compl then 1 else 0

let create () =
  let m =
    {
      fanin0 = Veci.create ();
      fanin1 = Veci.create ();
      inputs = Veci.create ();
      strash = Array.make 16 0;
      names = Hashtbl.create 64;
    }
  in
  (* constant node *)
  Veci.push m.fanin0 (-2);
  Veci.push m.fanin1 (-2);
  m

let n_nodes m = Veci.length m.fanin0

let n_inputs m = Veci.length m.inputs

let n_ands m = n_nodes m - n_inputs m - 1

let fresh_input ?name m =
  let id = n_nodes m in
  let idx = Veci.length m.inputs in
  Veci.push m.fanin0 (-1);
  Veci.push m.fanin1 idx;
  Veci.push m.inputs id;
  (match name with Some n -> Hashtbl.replace m.names idx n | None -> ());
  mk_edge id false

let input m i =
  if i < 0 || i >= n_inputs m then invalid_arg "Aig.input";
  mk_edge (Veci.get m.inputs i) false

let input_name m i =
  match Hashtbl.find_opt m.names i with
  | Some n -> n
  | None -> "x" ^ string_of_int i

let set_input_name m i name = Hashtbl.replace m.names i name

let is_input_node m id = id > 0 && Veci.get m.fanin0 id = -1

let is_and_node m id = id > 0 && Veci.get m.fanin0 id >= 0

let is_input_edge m e = is_input_node m (node_of e)

let input_index m e =
  let id = node_of e in
  if not (is_input_node m id) then invalid_arg "Aig.input_index";
  Veci.get m.fanin1 id

let fanins m id =
  if not (is_and_node m id) then invalid_arg "Aig.fanins";
  (Veci.get m.fanin0 id, Veci.get m.fanin1 id)

let fanin0 m id =
  if not (is_and_node m id) then invalid_arg "Aig.fanin0";
  Veci.unsafe_get m.fanin0 id

let fanin1 m id =
  if not (is_and_node m id) then invalid_arg "Aig.fanin1";
  Veci.unsafe_get m.fanin1 id

let node_kind m id =
  if id < 0 || id >= n_nodes m then invalid_arg "Aig.node_kind";
  if id = 0 then `Const
  else if is_input_node m id then `Input (Veci.get m.fanin1 id)
  else `And (Veci.get m.fanin0 id, Veci.get m.fanin1 id)

(* ---------- structural hashing ---------- *)

(* multiply-xorshift mix, so that the low bits taken by the mask depend
   on every bit of both fanins *)
let strash_hash a b =
  let h = (a * 0x1E3779B97F4A7C15) lxor b in
  let h = (h lxor (h lsr 31)) * 0x3F58476D1CE4E5B9 in
  h lxor (h lsr 29)

(* Slot of the AND node with fanins [(a, b)] in [table], or of the empty
   slot where it would go. *)
let strash_slot m table a b =
  let mask = Array.length table - 1 in
  let i = ref (strash_hash a b land mask) in
  let id = ref (Array.unsafe_get table !i) in
  while
    !id <> 0
    && (Veci.unsafe_get m.fanin0 !id <> a || Veci.unsafe_get m.fanin1 !id <> b)
  do
    i := (!i + 1) land mask;
    id := Array.unsafe_get table !i
  done;
  !i

let strash_grow m =
  let table = Array.make (2 * Array.length m.strash) 0 in
  Array.iter
    (fun id ->
      if id <> 0 then
        let a = Veci.unsafe_get m.fanin0 id and b = Veci.unsafe_get m.fanin1 id in
        table.(strash_slot m table a b) <- id)
    m.strash;
  m.strash <- table

(* [and_] with fanins already ordered, [a <= b] *)
let and_ordered m a b =
  if a = f then f
  else if a = t_ then b
  else if a = b then a
  else if a = not_ b then f
  else begin
    let i = strash_slot m m.strash a b in
    let id = m.strash.(i) in
    if id <> 0 then mk_edge id false
    else begin
      let id = n_nodes m in
      Veci.push m.fanin0 a;
      Veci.push m.fanin1 b;
      m.strash.(i) <- id;
      (* every AND node is in the table *)
      if 2 * n_ands m > Array.length m.strash then strash_grow m;
      mk_edge id false
    end
  end

let and_ m a b = if a <= b then and_ordered m a b else and_ordered m b a

let or_ m a b = not_ (and_ m (not_ a) (not_ b))

let xor_ m a b =
  (* a xor b = (a or b) and not (a and b) *)
  and_ m (or_ m a b) (not_ (and_ m a b))

let iff_ m a b = not_ (xor_ m a b)

let implies m a b = or_ m (not_ a) b

let ite m c a b = or_ m (and_ m c a) (and_ m (not_ c) b)

let and_list m = List.fold_left (and_ m) t_

let or_list m = List.fold_left (or_ m) f

let xor_list m = List.fold_left (xor_ m) f

(* ---------- cone traversal ---------- *)

(* Marks the nodes in the union of the cones of [es]. *)
let mark_cones m es =
  let marks = Bytes.make (n_nodes m) '\000' in
  let stack = Veci.create () in
  List.iter (fun e -> Veci.push stack (node_of e)) es;
  while Veci.length stack > 0 do
    let id = Veci.pop stack in
    if Bytes.get marks id = '\000' then begin
      Bytes.set marks id '\001';
      if is_and_node m id then begin
        Veci.push stack (node_of (Veci.get m.fanin0 id));
        Veci.push stack (node_of (Veci.get m.fanin1 id))
      end
    end
  done;
  marks

let support_of_list m es =
  let marks = mark_cones m es in
  let acc = ref [] in
  for i = n_inputs m - 1 downto 0 do
    if Bytes.get marks (Veci.get m.inputs i) = '\001' then acc := i :: !acc
  done;
  !acc

let support m e = support_of_list m [ e ]

let cone_size m e =
  let marks = mark_cones m [ e ] in
  let n = ref 0 in
  for id = 0 to n_nodes m - 1 do
    if Bytes.get marks id = '\001' && is_and_node m id then incr n
  done;
  !n

let depth m e =
  let marks = mark_cones m [ e ] in
  let top = node_of e in
  let d = Array.make (top + 1) 0 in
  for id = 0 to top do
    if Bytes.get marks id = '\001' && is_and_node m id then begin
      let e0 = Veci.get m.fanin0 id and e1 = Veci.get m.fanin1 id in
      d.(id) <- 1 + max d.(node_of e0) d.(node_of e1)
    end
  done;
  d.(top)

let eval m env e =
  let marks = mark_cones m [ e ] in
  let top = node_of e in
  let vals = Bytes.make (top + 1) '\000' in
  for id = 0 to top do
    if Bytes.get marks id = '\001' then begin
      let v =
        if id = 0 then false
        else if is_input_node m id then env (Veci.get m.fanin1 id)
        else begin
          let e0 = Veci.get m.fanin0 id and e1 = Veci.get m.fanin1 id in
          let v0 = Bytes.get vals (node_of e0) = '\001' <> is_complement e0 in
          let v1 = Bytes.get vals (node_of e1) = '\001' <> is_complement e1 in
          v0 && v1
        end
      in
      Bytes.set vals id (if v then '\001' else '\000')
    end
  done;
  (Bytes.get vals top = '\001') <> is_complement e

let sim64_many m env es =
  let marks = mark_cones m es in
  let n = n_nodes m in
  let vals = Array.make n 0L in
  for id = 0 to n - 1 do
    if Bytes.get marks id = '\001' then
      if id = 0 then vals.(id) <- 0L
      else if is_input_node m id then
        vals.(id) <- env (Veci.get m.fanin1 id)
      else begin
        let e0 = Veci.get m.fanin0 id and e1 = Veci.get m.fanin1 id in
        let v0 = vals.(node_of e0) in
        let v0 = if is_complement e0 then Int64.lognot v0 else v0 in
        let v1 = vals.(node_of e1) in
        let v1 = if is_complement e1 then Int64.lognot v1 else v1 in
        vals.(id) <- Int64.logand v0 v1
      end
  done;
  let out e =
    let v = vals.(node_of e) in
    if is_complement e then Int64.lognot v else v
  in
  List.map out es

let sim64 m env e =
  match sim64_many m env [ e ] with [ v ] -> v | _ -> assert false

(* ---------- rebuilding transformations ---------- *)

(* Rebuild the cone of [e], mapping input nodes through [leaf]. New nodes
   are created in the same manager; this is safe because freshly created
   nodes have ids beyond the snapshot of the cone being traversed. *)
let rebuild m leaf e =
  let marks = mark_cones m [ e ] in
  let top = node_of e in
  let map = Array.make (top + 1) 0 in
  for id = 0 to top do
    if Bytes.get marks id = '\001' then
      if id = 0 then map.(id) <- f
      else if is_input_node m id then
        map.(id) <- leaf (Veci.get m.fanin1 id) (mk_edge id false)
      else begin
        let e0 = Veci.get m.fanin0 id and e1 = Veci.get m.fanin1 id in
        let g0 = map.(node_of e0) lxor (e0 land 1) in
        let g1 = map.(node_of e1) lxor (e1 land 1) in
        map.(id) <- and_ m g0 g1
      end
  done;
  map.(top) lxor (e land 1)

let compose m subst e =
  let leaf idx original =
    match subst idx with Some g -> g | None -> original
  in
  rebuild m leaf e

let cofactor m i b e =
  let v = if b then t_ else f in
  compose m (fun idx -> if idx = i then Some v else None) e

let check_blowup m max_nodes =
  match max_nodes with
  | Some limit when n_nodes m > limit -> raise Blowup
  | Some _ | None -> ()

let quantify combine ?max_nodes m vars e =
  (* expand variables still in the support, one at a time *)
  let rec go vars e =
    match vars with
    | [] -> e
    | v :: rest ->
        let e =
          if List.mem v (support m e) then begin
            let e0 = cofactor m v false e in
            let e1 = cofactor m v true e in
            check_blowup m max_nodes;
            combine m e0 e1
          end
          else e
        in
        go rest e
  in
  go vars e

let exists ?max_nodes m vars e = quantify or_ ?max_nodes m vars e

let forall ?max_nodes m vars e = quantify and_ ?max_nodes m vars e

let import dst ~src ~map_input e =
  let marks = mark_cones src [ e ] in
  let top = node_of e in
  let map = Array.make (top + 1) 0 in
  for id = 0 to top do
    if Bytes.get marks id = '\001' then
      if id = 0 then map.(id) <- f
      else if is_input_node src id then
        map.(id) <- map_input (Veci.get src.fanin1 id)
      else begin
        let e0 = Veci.get src.fanin0 id and e1 = Veci.get src.fanin1 id in
        let g0 = map.(node_of e0) lxor (e0 land 1) in
        let g1 = map.(node_of e1) lxor (e1 land 1) in
        map.(id) <- and_ dst g0 g1
      end
  done;
  map.(top) lxor (e land 1)
