type row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  max_s : float;
}

type t = {
  rows : row list;
  wall_s : float;
  n_spans : int;
  contexts : (string * string * float) list;
}

let engine_prefixes = [ "qbf."; "cegar."; "mg."; "ljh."; "pipeline." ]

let is_engine name =
  List.exists (fun p -> String.starts_with ~prefix:p name) engine_prefixes

(* One walk over the call-path trie: same-name nodes fold into one row,
   and each sat.* node's total lands on the nearest engine name above it
   on its path ("(root)" when there is none — including orphans, which
   the profile grafts in as roots). *)
let of_profile (p : Profile.t) =
  let tbl : (string, row) Hashtbl.t = Hashtbl.create 32 in
  let ctx_tbl : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
  let add tbl key v f =
    Hashtbl.replace tbl key
      (match Hashtbl.find_opt tbl key with Some old -> f old | None -> v)
  in
  let rec walk anc (n : Profile.node) =
    let name = n.Profile.pn_name in
    let r =
      {
        name;
        count = n.Profile.pn_count;
        total_s = n.Profile.pn_total_s;
        self_s = n.Profile.pn_self_s;
        max_s = n.Profile.pn_max_s;
      }
    in
    add tbl name r (fun o ->
        {
          o with
          count = o.count + r.count;
          total_s = o.total_s +. r.total_s;
          self_s = o.self_s +. r.self_s;
          max_s = Float.max o.max_s r.max_s;
        });
    if String.starts_with ~prefix:"sat." name then
      add ctx_tbl (anc, name) r.total_s (fun o -> o +. r.total_s);
    let anc = if is_engine name then name else anc in
    Hashtbl.iter (fun _ c -> walk anc c) n.Profile.pn_children
  in
  List.iter (walk "(root)") p.Profile.roots;
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
    |> List.sort (fun a b -> compare b.self_s a.self_s)
  in
  let contexts =
    Hashtbl.fold (fun (a, n) s acc -> (a, n, s) :: acc) ctx_tbl []
    |> List.sort (fun (a1, n1, _) (a2, n2, _) -> compare (a1, n1) (a2, n2))
  in
  { rows; wall_s = p.Profile.wall_s; n_spans = p.Profile.n_spans; contexts }

let of_file path = of_profile (Profile.of_file path)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d spans, %.3fs wall (root spans)\n" t.n_spans
       t.wall_s);
  if t.rows <> [] then begin
    let w =
      List.fold_left (fun acc r -> max acc (String.length r.name)) 4 t.rows
    in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %8s %10s %10s %7s %10s\n" w "span" "count"
         "total(s)" "self(s)" "self%" "max(s)");
    let denom = if t.wall_s > 0.0 then t.wall_s else 1.0 in
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s %8d %10.4f %10.4f %6.1f%% %10.4f\n" w r.name
             r.count r.total_s r.self_s
             (100.0 *. r.self_s /. denom)
             r.max_s))
      t.rows
  end;
  if t.contexts <> [] then begin
    Buffer.add_string buf "\nSAT time by engine context:\n";
    let sat_total =
      List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 t.contexts
    in
    let denom = if sat_total > 0.0 then sat_total else 1.0 in
    List.iter
      (fun (anc, name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %-18s %10.4fs %6.1f%%\n" anc name s
             (100.0 *. s /. denom)))
      t.contexts
  end;
  Buffer.contents buf

(* Self-time is the signal worth gating on: total time double-counts
   nested spans and count deltas are expected whenever inputs change.
   The absolute floor keeps sub-millisecond jitter from flagging rows. *)
let abs_floor_s = 0.001

let diff ?(threshold = 0.10) base cur =
  let tbl : (string, row option * row option) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace tbl r.name (Some r, None)) base.rows;
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.name with
      | Some (b, _) -> Hashtbl.replace tbl r.name (b, Some r)
      | None -> Hashtbl.replace tbl r.name (None, Some r))
    cur.rows;
  let zero name = { name; count = 0; total_s = 0.0; self_s = 0.0; max_s = 0.0 } in
  let rows =
    Hashtbl.fold
      (fun name (b, c) acc ->
        let b = Option.value b ~default:(zero name) in
        let c = Option.value c ~default:(zero name) in
        (name, b, c) :: acc)
      tbl []
    |> List.sort (fun (_, b1, c1) (_, b2, c2) ->
           compare
             (Float.abs (c2.self_s -. b2.self_s))
             (Float.abs (c1.self_s -. b1.self_s)))
  in
  let buf = Buffer.create 1024 in
  let n_sig = ref 0 in
  Buffer.add_string buf
    (Printf.sprintf "wall: %.3fs -> %.3fs (%+.1f%%)\n" base.wall_s cur.wall_s
       (if base.wall_s > 0.0 then
          100.0 *. (cur.wall_s -. base.wall_s) /. base.wall_s
        else 0.0));
  let w =
    List.fold_left (fun acc (n, _, _) -> max acc (String.length n)) 4 rows
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s %7s %7s %10s %10s %10s\n" w "span" "count"
       "Δcount" "self(s)" "Δself(s)" "Δself%");
  List.iter
    (fun (name, b, c) ->
      let d_self = c.self_s -. b.self_s in
      let only_one = b.count = 0 || c.count = 0 in
      let significant =
        (only_one && Float.abs d_self > abs_floor_s)
        || Float.abs d_self > Float.max abs_floor_s (threshold *. b.self_s)
      in
      if significant then incr n_sig;
      let pct =
        if b.self_s > 0.0 then
          Printf.sprintf "%+9.1f%%" (100.0 *. d_self /. b.self_s)
        else if c.self_s > 0.0 then "      new!"
        else "         -"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %-*s %7d %+7d %10.4f %+10.4f %s\n"
           (if significant then "!" else " ")
           w name c.count (c.count - b.count) c.self_s d_self pct))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%d significant deltas (threshold %.0f%%)\n" !n_sig
       (100.0 *. threshold));
  (Buffer.contents buf, !n_sig)
