module Diag = Step_lint.Diag

type cnf = { num_vars : int; clauses : Lit.t list list }

type quantifier = Exists | Forall

type scan = {
  n_vars : int;
  prefix : (quantifier * int list) list;
  matrix : int list list;
  diags : Diag.t list;
  fatal : string option;
}

let scan ?file ~qdimacs text =
  let diags = ref [] in
  let err ?line ?item code msg =
    diags := Diag.error ?file ?line ?item ~code msg :: !diags
  in
  let warn ?line ?item code msg =
    diags := Diag.warning ?file ?line ?item ~code msg :: !diags
  in
  let fatal = ref None in
  let reject msg = if !fatal = None then fatal := Some msg in
  let header = ref None in (* first well-formed header: (vars, clauses, line) *)
  let header_vars = ref 0 in (* the strict readers size from the last one *)
  let max_var = ref 0 in
  let prefix = ref [] in
  let matrix = ref [] in
  let cur = ref [] in
  let cur_line = ref 0 in
  let matrix_started = ref false in
  let seen_clauses = Hashtbl.create 64 in
  let quantified = Hashtbl.create 64 in
  let first_use = Hashtbl.create 64 in
  let last_quant = ref None in
  let close_clause line =
    let lits = List.rev !cur in
    cur := [];
    matrix := lits :: !matrix;
    let seen_lit = Hashtbl.create 8 in
    let taut = ref false in
    List.iter
      (fun l ->
        if Hashtbl.mem seen_lit l then
          warn ~line ~item:(string_of_int l) "CNF003" "duplicate literal in clause"
        else begin
          Hashtbl.replace seen_lit l ();
          if Hashtbl.mem seen_lit (-l) then taut := true
        end)
      lits;
    if !taut then
      warn ~line "CNF004"
        "tautological clause (contains a literal and its negation)";
    let key = List.sort_uniq compare lits in
    match Hashtbl.find_opt seen_clauses key with
    | Some first ->
        warn ~line "CNF005"
          (Printf.sprintf "duplicate of the clause at line %d" first)
    | None -> Hashtbl.replace seen_clauses key line
  in
  let literal line tok =
    match int_of_string_opt tok with
    | None ->
        err ~line ~item:tok "CNF007" "bad token (expected an integer)";
        reject (Printf.sprintf "bad token %S" tok)
    | Some 0 -> close_clause (if !cur = [] then line else !cur_line)
    | Some n ->
        matrix_started := true;
        if !cur = [] then cur_line := line;
        let v = abs n in
        max_var := max !max_var v;
        if qdimacs && not (Hashtbl.mem first_use v) then
          Hashtbl.replace first_use v line;
        (match !header with
        | Some (nv, _, _) when v > nv ->
            err ~line ~item:(string_of_int n) "CNF001"
              (Printf.sprintf "literal references variable %d beyond header bound %d"
                 v nv)
        | Some _ | None -> ());
        cur := n :: !cur
  in
  let quantifier_block line q toks =
    if !matrix_started then
      err ~line "QDM005" "quantifier line after the first clause";
    if !last_quant = Some q then
      warn ~line "QDM004"
        (Printf.sprintf "adjacent '%c' quantifier blocks (mergeable)"
           (match q with Exists -> 'e' | Forall -> 'a'));
    last_quant := Some q;
    let bad tok msg =
      err ~line ~item:tok "CNF007" msg;
      reject "bad quantifier line";
      None
    in
    let vars =
      List.filter_map
        (fun tok ->
          match int_of_string_opt tok with
          | None -> bad tok "bad token in quantifier line"
          | Some v when v < 0 -> bad tok "negative variable in quantifier line"
          | Some 0 -> None
          | Some v ->
              max_var := max !max_var v;
              (match Hashtbl.find_opt quantified v with
              | Some first ->
                  err ~line ~item:(string_of_int v) "QDM002"
                    (Printf.sprintf "variable %d already quantified at line %d"
                       v first)
              | None -> Hashtbl.replace quantified v line);
              Some v)
        toks
    in
    if vars = [] then warn ~line "QDM003" "empty quantifier block";
    prefix := (q, vars) :: !prefix
  in
  let header_line line rest =
    if !header <> None then err ~line "CNF007" "duplicate 'p cnf' header";
    match rest with
    | [ "cnf"; nv; nc ] -> begin
        header_vars := Option.value (int_of_string_opt nv) ~default:0;
        match (int_of_string_opt nv, int_of_string_opt nc) with
        | Some nv, Some nc ->
            if !header = None then header := Some (nv, nc, line)
        | _ -> err ~line "CNF007" "malformed 'p cnf' header"
      end
    | _ ->
        err ~line "CNF007" "malformed 'p cnf' header";
        reject "malformed p line"
  in
  List.iteri
    (fun i text ->
      let line = i + 1 in
      match Step_util.Dimacs_tokens.split text with
      | [] -> ()
      | tok :: _ when tok.[0] = 'c' -> ()
      | "p" :: rest -> header_line line rest
      | "e" :: rest when qdimacs -> quantifier_block line Exists rest
      | "a" :: rest when qdimacs -> quantifier_block line Forall rest
      | tok :: _ as toks ->
          if tok.[0] = 'p' then reject "malformed p line";
          List.iter (literal line) toks)
    (String.split_on_char '\n' text);
  if !cur <> [] then begin
    warn ~line:!cur_line "CNF006"
      "unterminated trailing clause (no final 0); parsers auto-close it";
    close_clause !cur_line
  end;
  let n_clauses = List.length !matrix in
  (match !header with
  | Some (_, nc, line) when nc <> n_clauses ->
      err ~line "CNF002"
        (Printf.sprintf "header declares %d clauses but %d were found" nc
           n_clauses)
  | Some _ | None -> ());
  Hashtbl.fold
    (fun v line acc ->
      if Hashtbl.mem quantified v then acc else (v, line) :: acc)
    first_use []
  |> List.sort compare
  |> List.iter (fun (v, line) ->
         err ~line ~item:(string_of_int v) "QDM001"
           (Printf.sprintf
              "free variable %d (not bound by any quantifier block)" v));
  {
    n_vars = max !header_vars !max_var;
    prefix = List.rev !prefix;
    matrix = List.rev !matrix;
    diags = Diag.sort_by_line (List.rev !diags);
    fatal = !fatal;
  }

let parse_string_diags ?file text =
  let s = scan ?file ~qdimacs:false text in
  match s.fatal with
  | Some msg -> failwith ("Dimacs: " ^ msg)
  | None ->
      ( {
          num_vars = s.n_vars;
          clauses = List.map (List.map Lit.of_dimacs) s.matrix;
        },
        s.diags )

let parse_string text = fst (parse_string_diags text)

let parse_file_diags path =
  In_channel.with_open_bin path In_channel.input_all
  |> parse_string_diags ~file:path

let parse_file path = fst (parse_file_diags path)

let to_string cnf =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.num_vars (List.length cnf.clauses));
  let add_clause c =
    List.iter (fun l -> Buffer.add_string buf (Lit.to_string l ^ " ")) c;
    Buffer.add_string buf "0\n"
  in
  List.iter add_clause cnf.clauses;
  Buffer.contents buf

let write_file path cnf =
  let oc = open_out path in
  output_string oc (to_string cnf);
  close_out oc

let load_into solver cnf =
  Solver.ensure_var solver (cnf.num_vars - 1);
  List.map (Solver.add_clause solver) cnf.clauses
