(* Decomposition certificates and their independent checker.

   Everything here deliberately shares no code with the CDCL engine it
   audits beyond the DIMACS-family tokenizer of Step_util: clauses
   are plain DIMACS ints (an obligation's CNF packed into one
   0-terminated int array, 8 bytes a literal), unit propagation is a
   naive fixpoint over a private clause store, and proofs are parsed
   from their textual LRAT/DRAT form. Findings are reported as Step_lint
   diagnostics under the PRF rule family:

     PRF001  proof syntax error
     PRF002  truncated proof / missing terminator
     PRF003  non-increasing LRAT clause id
     PRF004  reference to an undefined or deleted clause
     PRF005  proof derives no empty clause
     PRF006  RUP / hint check failure
     PRF007  model or certificate mismatch *)

module Json = Step_obs.Json
module Diag = Step_lint.Diag
module Metrics = Step_obs.Metrics
module Clock = Step_obs.Clock

let m_checked = Metrics.counter "cert.checked"

let m_failed = Metrics.counter "cert.failed"

let m_proof_bytes = Metrics.counter "cert.proof_bytes"

let h_check = Metrics.histogram "cert.check_s"

(* ---------- certificate record ---------- *)

type format = Drat | Lrat

type answer =
  | Unsat of { format : format; proof : string }
  | Sat of int list

type obligation = {
  label : string;
  n_vars : int;
  cnf : int array;
  answer : answer;
}

(* ---------- packed CNF ---------- *)

let pack_cnf clauses =
  let len = List.fold_left (fun acc c -> acc + List.length c + 1) 0 clauses in
  let a = Array.make len 0 in
  let i = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun l ->
          a.(!i) <- l;
          incr i)
        c;
      incr i)
    clauses;
  a

(* [f start stop] per clause [cnf.(start) .. cnf.(stop - 1)]; literals
   after the last 0 still form a clause, so a truncated array can only
   make a model check stricter, never drop a clause. *)
let iter_clauses f cnf =
  let start = ref 0 in
  Array.iteri
    (fun i l ->
      if l = 0 then begin
        f !start i;
        start := i + 1
      end)
    cnf;
  if !start < Array.length cnf then f !start (Array.length cnf)

let clause_list cnf start stop =
  Array.to_list (Array.sub cnf start (stop - start))

let unpack_cnf cnf =
  let acc = ref [] in
  iter_clauses
    (fun start stop -> acc := clause_list cnf start stop :: !acc)
    cnf;
  List.rev !acc

type t = {
  po : string;
  gate : string;
  method_ : string;
  partition : (int list * int list * int list) option;
  obligations : obligation list;
}

let obligation_proof_bytes ob =
  match ob.answer with Unsat { proof; _ } -> String.length proof | Sat _ -> 0

let proof_bytes c =
  List.fold_left (fun acc ob -> acc + obligation_proof_bytes ob) 0 c.obligations

(* ---------- private clause store + unit propagation ---------- *)

module Store = struct
  type t = {
    tbl : (int, int array) Hashtbl.t; (* id -> dedup-sorted DIMACS clause *)
    mutable n_vars : int;
  }

  let create () = { tbl = Hashtbl.create 256; n_vars = 0 }

  let norm clause = Array.of_list (List.sort_uniq compare clause)

  let add t id clause =
    List.iter (fun l -> t.n_vars <- max t.n_vars (abs l)) clause;
    Hashtbl.replace t.tbl id (norm clause)

  (* the input clause [cnf.(start) .. cnf.(stop - 1)], sorted and deduped
     straight from the packed array *)
  let add_packed t id cnf start stop =
    let c = Array.sub cnf start (stop - start) in
    Array.sort Int.compare c;
    let k = ref 0 in
    Array.iteri
      (fun i l ->
        t.n_vars <- max t.n_vars (abs l);
        if i = 0 || l <> c.(!k - 1) then begin
          c.(!k) <- l;
          incr k
        end)
      c;
    Hashtbl.replace t.tbl id
      (if !k = Array.length c then c else Array.sub c 0 !k)

  (* input clauses numbered 1..m in order; returns m *)
  let add_cnf t cnf =
    let next = ref 0 in
    iter_clauses
      (fun start stop ->
        incr next;
        add_packed t !next cnf start stop)
      cnf;
    !next

  let remove t id = Hashtbl.remove t.tbl id

  let find t id = Hashtbl.find_opt t.tbl id

  (* first id whose clause is structurally equal (for DRAT deletions) *)
  let find_matching t clause =
    let c = norm clause in
    Hashtbl.fold
      (fun id c' acc -> if acc = None && c' = c then Some id else acc)
      t.tbl None
end

(* Assignment: index by variable, 0 unknown / 1 true / -1 false. *)
let eval_lit value l =
  let v = value.(abs l) in
  if v = 0 then 0 else if l > 0 then v else -v

(* [assign] returns false on contradiction with the current assignment —
   which, starting from a negated clause, means a propagation conflict. *)
let assign value l =
  let v = abs l and want = if l > 0 then 1 else -1 in
  if value.(v) = 0 then begin
    value.(v) <- want;
    true
  end
  else value.(v) = want

(* Clause status under the current assignment. *)
type status = Satisfied | Falsified | Unit of int | Unresolved

let clause_status value clause =
  let unassigned = ref 0 and last = ref 0 and sat = ref false in
  Array.iter
    (fun l ->
      match eval_lit value l with
      | 1 -> sat := true
      | 0 ->
          incr unassigned;
          last := l
      | _ -> ())
    clause;
  if !sat then Satisfied
  else if !unassigned = 0 then Falsified
  else if !unassigned = 1 then Unit !last
  else Unresolved

(* Full RUP: naive fixpoint over every live clause from the assignment
   already in [value]; true iff a conflict arises. *)
let rup (store : Store.t) value =
  let conflict = ref false in
  let changed = ref true in
  while !changed && not !conflict do
    changed := false;
    Hashtbl.iter
      (fun _ clause ->
        if not !conflict then
          match clause_status value clause with
          | Falsified -> conflict := true
          | Unit l ->
              if assign value l then changed := true else conflict := true
          | Satisfied | Unresolved -> ())
      store.Store.tbl
  done;
  !conflict

(* Hint-directed check: process the hint clauses in order; each must be
   falsified (conflict — done) or unit (propagate) under the running
   assignment. Returns [Ok true] on conflict, [Ok false] if the hints run
   out without one (caller falls back to full RUP), [Error id] on a
   dangling reference. *)
let check_hints (store : Store.t) value hints =
  let rec go = function
    | [] -> Ok false
    | id :: rest -> begin
        match Store.find store id with
        | None -> Error id
        | Some clause -> begin
            match clause_status value clause with
            | Falsified -> Ok true
            | Unit l -> if assign value l then go rest else Ok true
            | Satisfied | Unresolved -> Ok false
          end
      end
  in
  go hints

(* Negate the added clause into a fresh assignment; [None] means the
   clause is a tautology (trivially RUP). *)
let negated_assignment ~n_vars clause =
  let value = Array.make (n_vars + 1) 0 in
  if List.for_all (fun l -> assign value (-l)) clause then Some value else None

(* ---------- proof parsing ---------- *)

(* Tokenizes one proof line with the DIMACS-family tokenizer, treating a
   lone [d] as the marker token [`D]. *)
let tokenize line =
  Step_util.Dimacs_tokens.split line
  |> List.map (fun tok ->
         if tok = "d" then `D
         else
           match int_of_string_opt tok with
           | Some n -> `Int n
           | None -> `Bad tok)

let lines_of proof =
  String.split_on_char '\n' proof
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")

(* ---------- format-level lint ---------- *)

let lint ?file format proof =
  let diags = ref [] in
  let err ?line ?item code msg =
    diags := Diag.error ?file ?line ?item ~code msg :: !diags
  in
  let text = function `Int n -> string_of_int n | `D -> "d" | `Bad tok -> tok in
  (* Scans a line that [zeros] 0 tokens terminate; returns the number of
     literals before the first 0, or [None] after a finding. *)
  let terminated ~line ~zeros ~unterminated ?(ok = fun _ -> true) toks =
    let rec go n_lits seen = function
      | [] ->
          if seen < zeros then begin
            err ~line "PRF002" unterminated;
            None
          end
          else Some n_lits
      | (`Bad _ | `D) as tok :: _ ->
          err ~line ~item:(text tok) "PRF001" "bad token (expected an integer)";
          None
      | `Int _ :: _ when seen >= zeros ->
          err ~line "PRF001" "tokens after the terminating 0";
          None
      | `Int 0 :: rest -> go n_lits (seen + 1) rest
      | `Int n :: rest ->
          if ok n then go (if seen = 0 then n_lits + 1 else n_lits) seen rest
          else None
    in
    go 0 0 toks
  in
  let saw_line = ref false and saw_empty = ref false and last_id = ref 0 in
  let refutes = function Some 0 -> saw_empty := true | Some _ | None -> () in
  List.iter
    (fun (line, l) ->
      match tokenize l with
      | [] | `Bad "c" :: _ -> ()
      | toks -> (
          saw_line := true;
          match (format, toks) with
          | Drat, toks ->
              let toks = match toks with `D :: rest -> rest | _ -> toks in
              refutes
                (terminated ~line ~zeros:1
                   ~unterminated:"clause line not 0-terminated" toks)
          | Lrat, `Int _ :: `D :: ids ->
              let ok n =
                if n < 0 then
                  err ~line ~item:(string_of_int n) "PRF001"
                    "negative clause id in deletion";
                n >= 0
              in
              ignore
                (terminated ~line ~zeros:1 ~ok
                   ~unterminated:"deletion line not 0-terminated" ids)
          | Lrat, `Int id :: rest ->
              if id <= !last_id then
                err ~line ~item:(string_of_int id) "PRF003"
                  (Printf.sprintf "clause id %d not above previous id %d" id
                     !last_id)
              else last_id := id;
              refutes
                (terminated ~line ~zeros:2
                   ~unterminated:
                     "addition line needs two 0 terminators (lits, hints)"
                   rest)
          | Lrat, tok :: _ ->
              err ~line ~item:(text tok) "PRF001"
                "line must start with a clause id"
          | Lrat, [] -> ()))
    (lines_of proof);
  if not !saw_line then err "PRF002" "empty proof"
  else if not !saw_empty then
    err "PRF005" "proof has no empty-clause line (does not refute)";
  Diag.sort_by_line (List.rev !diags)

(* ---------- UNSAT proof checking ---------- *)

type outcome = { mutable diags : Diag.t list; mutable refuted : bool }

let err ?file ?line ~item outcome code msg =
  outcome.diags <- Diag.error ?file ?line ~item ~code msg :: outcome.diags

let check_lrat ?file ~item ~n_vars ~cnf ~proof () =
  let outcome = { diags = []; refuted = false } in
  let store = Store.create () in
  store.Store.n_vars <- n_vars;
  let last_id = ref (Store.add_cnf store cnf) in
  let e ?line code msg = err ?file ?line ~item outcome code msg in
  (try
     List.iter
       (fun (ln, line) ->
         if outcome.refuted then raise Exit;
         match tokenize line with
         | `Int id :: `D :: rest ->
             (* deletion line: ids until 0 *)
             ignore id;
             let rec del = function
               | [ `Int 0 ] -> ()
               | `Int 0 :: _ ->
                   e ~line:ln "PRF001" "tokens after terminating 0";
                   raise Exit
               | `Int cid :: rest ->
                   if Store.find store cid = None then begin
                     e ~line:ln "PRF004"
                       (Printf.sprintf
                          "deletion references unknown clause id %d" cid);
                     raise Exit
                   end;
                   Store.remove store cid;
                   del rest
               | [] ->
                   e ~line:ln "PRF002" "deletion line not 0-terminated";
                   raise Exit
               | _ ->
                   e ~line:ln "PRF001" "malformed deletion line";
                   raise Exit
             in
             del rest
         | `Int id :: rest ->
             if id <= !last_id then begin
               e ~line:ln "PRF003"
                 (Printf.sprintf "clause id %d not above previous id %d" id
                    !last_id);
               raise Exit
             end;
             (* lits until first 0, hints until second 0 *)
             let rec split_lits acc = function
               | `Int 0 :: rest -> Some (List.rev acc, rest)
               | `Int l :: rest -> split_lits (l :: acc) rest
               | _ -> None
             in
             let parsed =
               match split_lits [] rest with
               | Some (lits, rest) -> begin
                   match split_lits [] rest with
                   | Some (hints, []) -> Some (lits, hints)
                   | Some (_, _ :: _) | None -> None
                 end
               | None -> None
             in
             begin
               match parsed with
               | None ->
                   if List.exists (function `Bad _ -> true | _ -> false) rest
                   then e ~line:ln "PRF001" "non-integer token"
                   else e ~line:ln "PRF002" "addition line not 0 0-terminated";
                   raise Exit
               | Some (lits, hints) ->
                   last_id := id;
                   let nv =
                     List.fold_left
                       (fun a l -> max a (abs l))
                       store.Store.n_vars lits
                   in
                   (match negated_assignment ~n_vars:nv lits with
                   | None -> () (* tautology: trivially RUP *)
                   | Some value -> begin
                       match check_hints store value hints with
                       | Error cid ->
                           e ~line:ln "PRF004"
                             (Printf.sprintf
                                "hint references unknown clause id %d" cid);
                           raise Exit
                       | Ok true -> ()
                       | Ok false ->
                           (* imperfect hints: fall back to full RUP *)
                           if not (rup store value) then begin
                             e ~line:ln "PRF006"
                               (Printf.sprintf
                                  "clause %d is not a unit-propagation \
                                   consequence (RUP check failed)"
                                  id);
                             raise Exit
                           end
                     end);
                   if lits = [] then begin
                     outcome.refuted <- true;
                     raise Exit
                   end;
                   Store.add store id lits
             end
         | [] -> ()
         | _ ->
             e ~line:ln "PRF001" "line does not start with a clause id";
             raise Exit)
       (lines_of proof)
   with Exit -> ());
  if (not outcome.refuted) && outcome.diags = [] then
    err ?file ~item outcome "PRF005" "proof derives no empty clause";
  List.rev outcome.diags

let check_drat ?file ~item ~n_vars ~cnf ~proof () =
  let outcome = { diags = []; refuted = false } in
  let store = Store.create () in
  store.Store.n_vars <- n_vars;
  let next = ref (Store.add_cnf store cnf) in
  let e ?line code msg = err ?file ?line ~item outcome code msg in
  let rec split_lits acc = function
    | [ `Int 0 ] -> Some (List.rev acc)
    | `Int 0 :: _ -> None
    | `Int l :: rest -> split_lits (l :: acc) rest
    | _ -> None
  in
  (try
     List.iter
       (fun (ln, line) ->
         if outcome.refuted then raise Exit;
         let toks = tokenize line in
         let deletion, toks =
           match toks with `D :: rest -> (true, rest) | _ -> (false, toks)
         in
         match split_lits [] toks with
         | None ->
             if List.exists (function `Bad _ -> true | _ -> false) toks then
               e ~line:ln "PRF001" "non-integer token"
             else e ~line:ln "PRF002" "line not 0-terminated";
             raise Exit
         | Some lits ->
             if deletion then begin
               match Store.find_matching store lits with
               | Some id -> Store.remove store id
               | None ->
                   (* ignoring a deletion can only make later RUP checks
                      easier to *fail*, never to pass wrongly *)
                   ()
             end
             else begin
               let nv =
                 List.fold_left
                   (fun a l -> max a (abs l))
                   store.Store.n_vars lits
               in
               (match negated_assignment ~n_vars:nv lits with
               | None -> ()
               | Some value ->
                   if not (rup store value) then begin
                     e ~line:ln "PRF006"
                       "clause is not a unit-propagation consequence (RUP \
                        check failed)";
                     raise Exit
                   end);
               if lits = [] then begin
                 outcome.refuted <- true;
                 raise Exit
               end;
               incr next;
               Store.add store !next lits
             end)
       (lines_of proof)
   with Exit -> ());
  if (not outcome.refuted) && outcome.diags = [] then
    err ?file ~item outcome "PRF005" "proof derives no empty clause";
  List.rev outcome.diags

(* ---------- SAT model checking ---------- *)

let check_model ?file ~item ~cnf ~model () =
  let diags = ref [] in
  let e code msg = diags := Diag.error ?file ~item ~code msg :: !diags in
  let tbl = Hashtbl.create 64 in
  let contradictory = ref false in
  List.iter
    (fun l ->
      if l = 0 then e "PRF001" "model contains literal 0"
      else begin
        if Hashtbl.mem tbl (-l) then contradictory := true;
        Hashtbl.replace tbl l ()
      end)
    model;
  if !contradictory then e "PRF007" "model assigns a variable both ways"
  else begin
    let bad = ref 0 and i = ref 0 in
    iter_clauses
      (fun start stop ->
        incr i;
        let sat = ref false in
        for k = start to stop - 1 do
          if Hashtbl.mem tbl cnf.(k) then sat := true
        done;
        if not !sat then begin
          incr bad;
          if !bad <= 3 then
            e "PRF007"
              (Printf.sprintf "model does not satisfy clause %d [%s]" !i
                 (String.concat " "
                    (List.map string_of_int (clause_list cnf start stop))))
        end)
      cnf;
    if !bad > 3 then
      e "PRF007" (Printf.sprintf "%d further falsified clauses" (!bad - 3))
  end;
  List.rev !diags

(* ---------- whole-certificate checking ---------- *)

let check_obligation ?file ~po ob =
  let item = po ^ "/" ^ ob.label in
  match ob.answer with
  | Unsat { format = Lrat; proof } ->
      check_lrat ?file ~item ~n_vars:ob.n_vars ~cnf:ob.cnf ~proof ()
  | Unsat { format = Drat; proof } ->
      check_drat ?file ~item ~n_vars:ob.n_vars ~cnf:ob.cnf ~proof ()
  | Sat model -> check_model ?file ~item ~cnf:ob.cnf ~model ()

let check ?file c =
  let t0 = Clock.now () in
  let diags =
    if c.obligations = [] then
      [
        Diag.error ?file ~item:c.po ~code:"PRF007"
          "certificate carries no obligations";
      ]
    else List.concat_map (check_obligation ?file ~po:c.po) c.obligations
  in
  Metrics.inc m_checked;
  if Diag.has_errors diags then Metrics.inc m_failed;
  Metrics.add m_proof_bytes (proof_bytes c);
  Metrics.observe h_check (Clock.elapsed_since t0);
  diags

(* ---------- JSON (de)serialization ---------- *)

let version = 1

let format_name = function Drat -> "drat" | Lrat -> "lrat"

let answer_to_json = function
  | Unsat { format; proof } ->
      Json.Obj
        [
          ("type", Json.String "unsat");
          ("format", Json.String (format_name format));
          ("proof", Json.String proof);
        ]
  | Sat model ->
      Json.Obj
        [
          ("type", Json.String "sat");
          ("model", Json.List (List.map (fun l -> Json.Int l) model));
        ]

let obligation_to_json ob =
  Json.Obj
    [
      ("label", Json.String ob.label);
      ("n_vars", Json.Int ob.n_vars);
      ( "cnf",
        Json.List
          (List.map
             (fun c -> Json.List (List.map (fun l -> Json.Int l) c))
             (unpack_cnf ob.cnf)) );
      ("answer", answer_to_json ob.answer);
    ]

let to_json c =
  Json.Obj
    [
      ("version", Json.Int version);
      ("kind", Json.String "decomposition-certificate");
      ("po", Json.String c.po);
      ("gate", Json.String c.gate);
      ("method", Json.String c.method_);
      ( "partition",
        match c.partition with
        | None -> Json.Null
        | Some (xa, xb, xc) ->
            let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
            Json.Obj [ ("xa", ints xa); ("xb", ints xb); ("xc", ints xc) ] );
      ("obligations", Json.List (List.map obligation_to_json c.obligations));
    ]

exception Bad of string

let of_json j =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    if Json.to_string_opt (Json.member "kind" j) <> Some "decomposition-certificate"
    then fail "not a decomposition certificate";
    if Json.to_int_opt (Json.member "version" j) <> Some version then
      fail "certificate from another format version";
    let str k =
      match Json.to_string_opt (Json.member k j) with
      | Some s -> s
      | None -> fail "missing field %s" k
    in
    let ints j =
      List.map
        (fun x ->
          match Json.to_int_opt x with
          | Some i -> i
          | None -> fail "non-integer in int list")
        (Json.to_list j)
    in
    let partition =
      match Json.member "partition" j with
      | Json.Null -> None
      | p ->
          Some
            ( ints (Json.member "xa" p),
              ints (Json.member "xb" p),
              ints (Json.member "xc" p) )
    in
    let obligations =
      List.map
        (fun oj ->
          let label =
            match Json.to_string_opt (Json.member "label" oj) with
            | Some s -> s
            | None -> fail "obligation missing label"
          in
          let n_vars =
            match Json.to_int_opt (Json.member "n_vars" oj) with
            | Some n -> n
            | None -> fail "obligation missing n_vars"
          in
          let cnf =
            pack_cnf
              (List.map
                 (fun c ->
                   let c = ints c in
                   if List.mem 0 c then fail "literal 0 inside a clause";
                   c)
                 (Json.to_list (Json.member "cnf" oj)))
          in
          let aj = Json.member "answer" oj in
          let answer =
            match Json.to_string_opt (Json.member "type" aj) with
            | Some "unsat" ->
                let format =
                  match Json.to_string_opt (Json.member "format" aj) with
                  | Some "lrat" -> Lrat
                  | Some "drat" -> Drat
                  | _ -> fail "unknown proof format"
                in
                let proof =
                  match Json.to_string_opt (Json.member "proof" aj) with
                  | Some p -> p
                  | None -> fail "unsat answer missing proof"
                in
                Unsat { format; proof }
            | Some "sat" -> Sat (ints (Json.member "model" aj))
            | _ -> fail "unknown answer type"
          in
          { label; n_vars; cnf; answer })
        (Json.to_list (Json.member "obligations" j))
    in
    Ok
      {
        po = str "po";
        gate = str "gate";
        method_ = str "method";
        partition;
        obligations;
      }
  with
  | Bad msg -> Error msg
  | Failure msg -> Error msg

let of_string s =
  match Json.of_string s with
  | exception Failure msg -> Error ("bad JSON: " ^ msg)
  | j -> of_json j

(* ---------- file I/O ---------- *)

let save path c =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "cert-" ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (Json.to_string (to_json c));
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> of_string text

(* PO names come from BLIF/AIGER symbol tables: keep them filesystem-safe. *)
let file ~dir po =
  let safe =
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch
        | _ -> '_')
      po
  in
  Filename.concat dir (safe ^ ".cert.json")
