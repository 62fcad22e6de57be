(* ---------- AIG manager view ---------- *)

type aig_node = Const | Input of int | And of int * int

type aig_view = { n_nodes : int; node : int -> aig_node; roots : int list }

let check_aig ?name view =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let file = name in
  let item id = "node " ^ string_of_int id in
  let strash = Hashtbl.create 64 in
  (* pass 1: per-node structural invariants *)
  (if view.n_nodes = 0 || view.node 0 <> Const then
     add
       (Diag.error ?file ~item:"node 0" ~code:"AIG001"
          "node 0 must be the constant node"));
  for id = 1 to view.n_nodes - 1 do
    match view.node id with
    | Const ->
        add
          (Diag.error ?file ~item:(item id) ~code:"AIG001"
             "constant node at nonzero id")
    | Input _ -> ()
    | And (f0, f1) ->
        let bad_edge e =
          e < 0 || e lsr 1 >= view.n_nodes || e lsr 1 >= id
        in
        if bad_edge f0 || bad_edge f1 then
          add
            (Diag.error ?file ~item:(item id) ~code:"AIG001"
               (Printf.sprintf
                  "fanin edge out of range or non-topological (fanins %d,%d must point below node %d)"
                  f0 f1 id))
        else begin
          (if f0 lsr 1 = 0 || f1 lsr 1 = 0 then
             add
               (Diag.warning ?file ~item:(item id) ~code:"AIG004"
                  "AND with a constant fanin (missed constant folding)")
           else if f0 lsr 1 = f1 lsr 1 then
             add
               (Diag.warning ?file ~item:(item id) ~code:"AIG004"
                  (if f0 = f1 then "AND of an edge with itself (missed folding)"
                   else "AND of an edge with its complement (missed folding to false)"))
           else if f0 > f1 then
             add
               (Diag.warning ?file ~item:(item id) ~code:"AIG004"
                  "unnormalized fanin order (expected fanin0 <= fanin1)"));
          let key = if f0 <= f1 then (f0, f1) else (f1, f0) in
          match Hashtbl.find_opt strash key with
          | Some first ->
              add
                (Diag.warning ?file ~item:(item id) ~code:"AIG002"
                   (Printf.sprintf
                      "structural-hash duplicate of node %d (same fanins %d,%d)"
                      first f0 f1))
          | None -> Hashtbl.replace strash key id
        end
  done;
  (* pass 2: reachability from the roots *)
  (if view.roots <> [] then begin
     let marks = Bytes.make (max 1 view.n_nodes) '\000' in
     let stack = ref (List.map (fun e -> e lsr 1) view.roots) in
     while !stack <> [] do
       match !stack with
       | [] -> ()
       | id :: rest ->
           stack := rest;
           if id >= 0 && id < view.n_nodes && Bytes.get marks id = '\000' then begin
             Bytes.set marks id '\001';
             match view.node id with
             | And (f0, f1) ->
                 let push e =
                   let nid = e lsr 1 in
                   if nid < id then stack := nid :: !stack
                 in
                 push f0;
                 push f1
             | Const | Input _ -> ()
           end
     done;
     for id = 1 to view.n_nodes - 1 do
       match view.node id with
       | And _ when Bytes.get marks id = '\000' ->
           add
             (Diag.warning ?file ~item:(item id) ~code:"AIG003"
                "AND node unreachable from every root (dangling)")
       | _ -> ()
     done
   end);
  List.rev !diags

(* ---------- partitions ---------- *)

let check_partition ?name ~support ~xa ~xb ~xc () =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let file = name in
  let set_of l =
    let t = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace t v ()) l;
    t
  in
  let sa = set_of xa and sb = set_of xb and sc = set_of xc in
  let ssup = set_of support in
  let overlap what other tbl l =
    List.iter
      (fun v ->
        if Hashtbl.mem tbl v then
          add
            (Diag.error ?file ~item:(string_of_int v) ~code:"PAR001"
               (Printf.sprintf "variable %d is in both %s and %s" v what other)))
      (List.sort_uniq compare l)
  in
  overlap "XA" "XB" sb xa;
  overlap "XA" "XC" sc xa;
  overlap "XB" "XC" sc xb;
  List.iter
    (fun v ->
      if not (Hashtbl.mem sa v || Hashtbl.mem sb v || Hashtbl.mem sc v) then
        add
          (Diag.error ?file ~item:(string_of_int v) ~code:"PAR002"
             (Printf.sprintf "support variable %d is in none of XA/XB/XC" v)))
    (List.sort_uniq compare support);
  List.iter
    (fun (what, l) ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem ssup v) then
            add
              (Diag.error ?file ~item:(string_of_int v) ~code:"PAR002"
                 (Printf.sprintf "%s variable %d is outside the support" what v)))
        (List.sort_uniq compare l))
    [ ("XA", xa); ("XB", xb); ("XC", xc) ];
  let la = List.length (List.sort_uniq compare xa)
  and lb = List.length (List.sort_uniq compare xb) in
  if la < lb then
    add
      (Diag.warning ?file ~code:"PAR003"
         (Printf.sprintf
            "symmetry-breaking violation: |XA|=%d < |XB|=%d (canonical form wants |XA| >= |XB|)"
            la lb));
  List.rev !diags
