module Diag = Step_lint.Diag

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* One pass reads the circuit and collects every AAG finding. [reject]
   keeps the first defect the strict reader refuses; after it the pass
   only lints. The linter's [defined] table (first definition line) and
   the reader's [map] (current edge) differ on purpose: the reader lets a
   later definition win and sees an AND's own lhs only after its fanins. *)
let read_body ?file ~add ~reject ~m ~ni ~nl ~no ~na body =
  let err ~line ?item code msg = add (Diag.error ?file ~line ?item ~code msg) in
  let aig = Aig.create () in
  let defined = Hashtbl.create 64 in (* var -> first definition line *)
  let map = Hashtbl.create 64 in (* var -> edge *)
  Hashtbl.replace map 0 Aig.f;
  let exceeds line lit =
    err ~line ~item:(string_of_int lit) "AAG003"
      (Printf.sprintf "literal %d exceeds header bound M=%d" lit m)
  in
  let out_of_range lit = lit < 0 || lit / 2 > m in
  let define line lit what =
    if lit land 1 = 1 || lit <= 0 then
      err ~line ~item:(string_of_int lit) "AAG001"
        (Printf.sprintf "%s literal must be a positive even literal" what)
    else if out_of_range lit then exceeds line lit
    else begin
      match Hashtbl.find_opt defined (lit / 2) with
      | Some first ->
          err ~line ~item:(string_of_int lit) "AAG002"
            (Printf.sprintf "variable %d multiply defined (first defined at line %d)"
               (lit / 2) first)
      | None -> Hashtbl.replace defined (lit / 2) line
    end
  in
  (* the reader keeps a definition unless it is out of range *)
  let store lit edge =
    if out_of_range lit then reject "Aag: literal out of range"
    else Hashtbl.replace map (lit / 2) (edge ())
  in
  let edge_of lit =
    if out_of_range lit then (reject "Aag: literal out of range"; Aig.f)
    else
      match Hashtbl.find_opt map (lit / 2) with
      | None -> reject "Aag: forward reference"; Aig.f
      | Some e -> if lit land 1 = 1 then Aig.not_ e else e
  in
  let int_at line tok k =
    match int_of_string_opt tok with
    | Some v -> k v
    | None ->
        err ~line ~item:tok "AAG001" "bad token (expected an integer)";
        reject "int_of_string"
  in
  (* references resolved once every definition is read *)
  let deferred = ref [] in
  let defer line lit =
    if out_of_range lit then exceeds line lit
    else deferred := (line, lit) :: !deferred
  in
  let single k what f =
    let line, text = body.(k) in
    match words text with
    | [ tok ] -> int_at line tok (f line)
    | _ ->
        err ~line "AAG001" (Printf.sprintf "malformed %s line" what);
        reject "int_of_string"
  in
  for k = 0 to ni - 1 do
    single k "input" (fun line lit ->
        define line lit "input";
        if lit land 1 = 1 || lit = 0 then reject "Aag: bad input literal"
        else store lit (fun () -> Aig.fresh_input aig))
  done;
  let latch_next = Array.make nl 0 in
  for k = 0 to nl - 1 do
    let line, text = body.(ni + k) in
    match words text with
    | q :: d :: _ ->
        int_at line q (fun q ->
            define line q "latch";
            if q land 1 = 1 || q = 0 then reject "Aag: bad latch literal"
            else store q (fun () -> Aig.fresh_input aig));
        int_at line d (fun d ->
            defer line d;
            latch_next.(k) <- d)
    | _ ->
        err ~line "AAG001" "malformed latch line";
        reject "Aag: malformed latch line"
  done;
  let out_lits = Array.make no 0 in
  for k = 0 to no - 1 do
    single (ni + nl + k) "output" (fun line lit ->
        defer line lit;
        out_lits.(k) <- lit)
  done;
  (* the format puts each AND after its fanins, so one in-order pass
     resolves every reference *)
  for k = 0 to na - 1 do
    let line, text = body.(ni + nl + no + k) in
    match words text with
    | [ lhs; r0; r1 ] ->
        int_at line lhs (fun lhs ->
            define line lhs "AND";
            if lhs land 1 = 1 then reject "Aag: complemented AND lhs");
        let fanin tok =
          int_at line tok (fun v ->
              if out_of_range v then exceeds line v
              else if v / 2 > 0 && not (Hashtbl.mem defined (v / 2)) then
                err ~line ~item:(string_of_int v) "AAG003"
                  (Printf.sprintf
                     "AND fanin %d references an undefined (or forward) variable"
                     v))
        in
        fanin r0;
        fanin r1;
        (match List.map int_of_string_opt [ lhs; r0; r1 ] with
        | [ Some lhs; Some r0; Some r1 ] when lhs land 1 = 0 ->
            let e1 = edge_of r1 in
            let e0 = edge_of r0 in
            store lhs (fun () -> Aig.and_ aig e0 e1)
        | _ -> ())
    | _ ->
        err ~line "AAG001" "malformed AND line";
        reject "Aag: malformed and line"
  done;
  (* the symbol table is the reader's alone *)
  let sym_in = Hashtbl.create 16 and sym_out = Hashtbl.create 16 in
  for k = ni + nl + no + na to Array.length body - 1 do
    let s = snd body.(k) in
    match (s.[0], String.index_opt s ' ') with
    | ('i' | 'l' | 'o'), Some sp -> begin
        match int_of_string_opt (String.sub s 1 (sp - 1)) with
        | None -> reject "int_of_string"
        | Some idx ->
            let name = String.sub s (sp + 1) (String.length s - sp - 1) in
            if s.[0] = 'o' then Hashtbl.replace sym_out idx name
            else if s.[0] = 'i' then Hashtbl.replace sym_in idx name
            else Hashtbl.replace sym_in (ni + idx) name
      end
    | _ -> ()
  done;
  List.iter
    (fun (line, lit) ->
      if lit / 2 > 0 && not (Hashtbl.mem defined (lit / 2)) then
        err ~line ~item:(string_of_int lit) "AAG003"
          (Printf.sprintf "literal %d references an undefined variable" lit))
    (List.rev !deferred);
  let latches =
    List.init nl (fun k -> (Printf.sprintf "l%d$in" k, edge_of latch_next.(k)))
  in
  let name_out k =
    Option.value (Hashtbl.find_opt sym_out k) ~default:("o" ^ string_of_int k)
  in
  let outputs = List.init no (fun k -> (name_out k, edge_of out_lits.(k))) in
  fun () ->
    Hashtbl.iter (fun idx name -> Aig.set_input_name aig idx name) sym_in;
    Circuit.make ~name:"aag" aig (outputs @ latches)

let read ?file text =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let err ?line code msg = add (Diag.error ?file ?line ~code msg) in
  let fatal = ref None in
  let reject msg = if !fatal = None then fatal := Some msg in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let build =
    match lines with
    | [] ->
        err "AAG001" "empty AIGER file";
        reject "Aag: empty file";
        None
    | (line, header) :: body -> begin
        let bad msg why =
          err ~line "AAG001" msg;
          reject why;
          None
        in
        match words header with
        | [ "aag"; m; i; l; o; a ] -> begin
            match List.map int_of_string_opt [ m; i; l; o; a ] with
            | [ Some m; Some ni; Some nl; Some no; Some na ] ->
                let body = Array.of_list body in
                if List.exists (fun n -> n < 0) [ m; ni; nl; no; na ] then
                  bad "malformed header (negative counts)" "Aag: bad header"
                else begin
                  if m < ni + nl + na then
                    err ~line "AAG001"
                      (Printf.sprintf "header M=%d is smaller than I+L+A=%d" m
                         (ni + nl + na));
                  if Array.length body < ni + nl + no + na then
                    bad
                      (Printf.sprintf
                         "truncated file: %d definition lines expected, %d present"
                         (ni + nl + no + na) (Array.length body))
                      "Aag: truncated file"
                  else
                    Some (read_body ?file ~add ~reject ~m ~ni ~nl ~no ~na body)
                end
            | _ -> bad "malformed header (non-integer counts)" "int_of_string"
          end
        | _ ->
            bad "malformed header (expected 'aag M I L O A')" "Aag: bad header"
      end
  in
  ( (match (!fatal, build) with
    | None, Some build -> Ok (build ())
    | Some msg, _ -> Error msg
    | None, None -> assert false (* every [None] above rejects *)),
    Diag.sort_by_line (List.rev !diags) )

let check ?file text = snd (read ?file text)

let parse_string text =
  match fst (read text) with Ok c -> c | Error msg -> failwith msg

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

let to_string (c : Circuit.t) =
  let aig = c.Circuit.aig in
  (* renumber: inputs get aiger vars 1..I, then AND nodes of the output
     cones in topological (node id) order *)
  let es = Array.to_list (Array.map snd c.Circuit.outputs) in
  let ni = Aig.n_inputs aig in
  let var_of = Hashtbl.create 64 in
  Hashtbl.replace var_of 0 0;
  for i = 0 to ni - 1 do
    Hashtbl.replace var_of (Aig.node_of (Aig.input aig i)) (i + 1)
  done;
  (* collect AND nodes in the cones, ascending ids *)
  let seen = Hashtbl.create 64 in
  let ands = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      if not (Aig.is_input_edge aig (2 * id)) && id <> 0 then begin
        let f0, f1 = Aig.fanins aig id in
        visit (Aig.node_of f0);
        visit (Aig.node_of f1);
        ands := id :: !ands
      end
    end
  in
  List.iter (fun e -> visit (Aig.node_of e)) es;
  let ands = List.rev !ands in
  let next = ref (ni + 1) in
  List.iter
    (fun id ->
      Hashtbl.replace var_of id !next;
      incr next)
    ands;
  let lit_of e =
    let v = Hashtbl.find var_of (Aig.node_of e) in
    (2 * v) + if Aig.is_complement e then 1 else 0
  in
  let na = List.length ands in
  let m = ni + na in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" m ni (List.length es) na);
  for i = 1 to ni do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * i))
  done;
  List.iter (fun e -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit_of e))) es;
  List.iter
    (fun id ->
      let f0, f1 = Aig.fanins aig id in
      let l0 = lit_of f0 and l1 = lit_of f1 in
      let hi = max l0 l1 and lo = min l0 l1 in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (2 * Hashtbl.find var_of id) hi lo))
    ands;
  for i = 0 to ni - 1 do
    Buffer.add_string buf (Printf.sprintf "i%d %s\n" i (Aig.input_name aig i))
  done;
  Array.iteri
    (fun k (name, _) -> Buffer.add_string buf (Printf.sprintf "o%d %s\n" k name))
    c.Circuit.outputs;
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
