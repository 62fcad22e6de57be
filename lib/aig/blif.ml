module Diag = Step_lint.Diag

(* Parsing goes in two passes: first collect .names tables and latches
   (reporting the BLF findings on the way), then elaborate signals into
   AIG edges on demand (memoized, with an in-progress mark to catch
   combinational cycles). *)

type gate = { gate_inputs : string list; cover : (string * char) list }

type statements = {
  mutable model : string;
  mutable pis : string list; (* reversed *)
  mutable pos_ : string list; (* reversed *)
  mutable gates : (string, gate) Hashtbl.t;
  mutable latches : (string * string) list; (* (data input, output) *)
}

(* Logical lines: '#' comments stripped, '\' continuations glued; each
   keeps the number of its first physical line. *)
let logical_lines text =
  let rec glue acc pending first lineno = function
    | [] ->
        List.rev (if pending = "" then acc else (first, pending) :: acc)
    | line :: rest ->
        let first = if pending = "" then lineno else first in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if String.length line > 0 && line.[String.length line - 1] = '\\' then
          glue acc
            (pending ^ String.sub line 0 (String.length line - 1) ^ " ")
            first (lineno + 1) rest
        else begin
          let full = String.trim (pending ^ line) in
          let acc = if full = "" then acc else (first, full) :: acc in
          glue acc "" first (lineno + 1) rest
        end
  in
  glue [] "" 1 1 (String.split_on_char '\n' text)

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* The first pass: gathers the statements and, on the way, every BLF
   finding; [fatal] keeps the first defect the reader rejects. *)
let collect ?file text =
  let st =
    {
      model = "blif";
      pis = [];
      pos_ = [];
      gates = Hashtbl.create 64;
      latches = [];
    }
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let fatal = ref None in
  let reject msg = if !fatal = None then fatal := Some ("Blif: " ^ msg) in
  let drivers = Hashtbl.create 64 in (* signal -> first driver line *)
  let decls = Hashtbl.create 64 in (* (directive, name) -> line *)
  let uses = ref [] in (* (signal, line), reversed *)
  let drive line name =
    match Hashtbl.find_opt drivers name with
    | Some first ->
        add
          (Diag.error ?file ~line ~item:name ~code:"BLF002"
             (Printf.sprintf "signal %s is multiply driven (first driver at line %d)"
                name first))
    | None -> Hashtbl.replace drivers name line
  in
  let declare line kind name =
    match Hashtbl.find_opt decls (kind, name) with
    | Some first ->
        add
          (Diag.warning ?file ~line ~item:name ~code:"BLF003"
             (Printf.sprintf "%s declares %s again (first declared at line %d)"
                kind name first))
    | None -> Hashtbl.replace decls (kind, name) line
  in
  let use line name = uses := (name, line) :: !uses in
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (out, gate_inputs, cover) ->
        Hashtbl.replace st.gates out { gate_inputs; cover = List.rev cover };
        current := None
  in
  let cover_row pattern value =
    match !current with
    | Some (out, ins, cover) ->
        if pattern = "" && ins <> [] then
          reject "pattern missing for non-constant cover";
        if value <> "1" && value <> "0" then
          reject "cover output must be 0 or 1";
        current := Some (out, ins, (pattern, value.[0]) :: cover)
    | None -> assert false
  in
  let handle (line, text) =
    match words text with
    | [] -> ()
    | w :: args when w.[0] = '.' -> begin
        flush ();
        match (w, args) with
        | ".model", name :: _ -> st.model <- name
        | ".inputs", names ->
            List.iter
              (fun n ->
                declare line ".inputs" n;
                drive line n)
              names;
            st.pis <- List.rev_append names st.pis
        | ".outputs", names ->
            List.iter
              (fun n ->
                declare line ".outputs" n;
                use line n)
              names;
            st.pos_ <- List.rev_append names st.pos_
        | ".names", [] ->
            add
              (Diag.error ?file ~line ~code:"BLF001" ".names without signals");
            reject ".names without signals"
        | ".names", signals -> begin
            match List.rev signals with
            | out :: rins ->
                let ins = List.rev rins in
                drive line out;
                List.iter (use line) ins;
                current := Some (out, ins, [])
            | [] -> assert false
          end
        | ".latch", input :: output :: _ ->
            use line input;
            drive line output;
            st.latches <- (input, output) :: st.latches
        | ".latch", _ -> reject "malformed .latch"
        | (".exdc" | ".wire_load_slope" | ".gate" | ".mlatch"), _ ->
            reject (Printf.sprintf "unsupported construct %s" w)
        | _, _ -> () (* .end, .model without a name, unknown directives *)
      end
    | [ pattern; value ] when !current <> None -> cover_row pattern value
    | [ value ] when !current <> None -> cover_row "" value
    | w :: _ -> reject (Printf.sprintf "unexpected token %S" w)
  in
  List.iter handle (logical_lines text);
  flush ();
  let reported = Hashtbl.create 16 in
  List.iter
    (fun (name, line) ->
      if not (Hashtbl.mem drivers name || Hashtbl.mem reported name) then begin
        Hashtbl.replace reported name ();
        add
          (Diag.error ?file ~line ~item:name ~code:"BLF001"
             (Printf.sprintf
                "signal %s is used but never driven (no .names/.latch/.inputs)"
                name))
      end)
    (List.rev !uses);
  (st, Diag.sort_by_line (List.rev !diags), !fatal)

let elaborate st =
  let aig = Aig.create () in
  let env : (string, Aig.lit option) Hashtbl.t = Hashtbl.create 64 in
  (* primary inputs, then latch outputs as pseudo-inputs *)
  let add_pi name =
    if not (Hashtbl.mem env name) then
      Hashtbl.replace env name (Some (Aig.fresh_input ~name aig))
  in
  List.iter add_pi (List.rev st.pis);
  List.iter (fun (_, out) -> add_pi out) (List.rev st.latches);
  let rec signal name =
    match Hashtbl.find_opt env name with
    | Some (Some e) -> e
    | Some None -> failwith (Printf.sprintf "Blif: combinational loop at %s" name)
    | None -> begin
        match Hashtbl.find_opt st.gates name with
        | None -> failwith (Printf.sprintf "Blif: undefined signal %s" name)
        | Some g ->
            Hashtbl.replace env name None;
            let ins = List.map signal g.gate_inputs in
            let cube pattern =
              if String.length pattern <> List.length ins then
                failwith
                  (Printf.sprintf "Blif: cover arity mismatch for %s" name);
              let lits =
                List.mapi
                  (fun i e ->
                    match pattern.[i] with
                    | '1' -> e
                    | '0' -> Aig.not_ e
                    | '-' -> Aig.t_
                    | c ->
                        failwith
                          (Printf.sprintf "Blif: bad cover char %c" c))
                  ins
              in
              Aig.and_list aig lits
            in
            let ones = List.filter (fun (_, v) -> v = '1') g.cover in
            let zeros = List.filter (fun (_, v) -> v = '0') g.cover in
            let e =
              match (ones, zeros) with
              | [], [] -> Aig.f
              | _, [] -> Aig.or_list aig (List.map (fun (p, _) -> cube p) ones)
              | [], _ ->
                  Aig.not_
                    (Aig.or_list aig (List.map (fun (p, _) -> cube p) zeros))
              | _, _ -> failwith "Blif: mixed on-set/off-set cover"
            in
            Hashtbl.replace env name (Some e);
            e
      end
  in
  let outputs =
    List.map (fun name -> (name, signal name)) (List.rev st.pos_)
    @ List.map
        (fun (input, out) -> (out ^ "$in", signal input))
        (List.rev st.latches)
  in
  Circuit.make ~name:st.model aig outputs

let check ?file text =
  let _, diags, _ = collect ?file text in
  diags

let parse_string text =
  match collect text with
  | st, _, None -> elaborate st
  | _, _, Some msg -> failwith msg

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

(* ---------- writing ---------- *)

let to_string (c : Circuit.t) =
  let aig = c.Circuit.aig in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" c.Circuit.name);
  let input_names =
    List.init (Aig.n_inputs aig) (fun i -> Aig.input_name aig i)
  in
  Buffer.add_string buf ".inputs";
  List.iter (fun n -> Buffer.add_string buf (" " ^ n)) input_names;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ".outputs";
  Array.iter
    (fun (n, _) -> Buffer.add_string buf (" " ^ n))
    c.Circuit.outputs;
  Buffer.add_char buf '\n';
  (* name of the signal for an uncomplemented node *)
  let node_name id =
    if Aig.is_input_edge aig (2 * id) then
      Aig.input_name aig (Aig.input_index aig (2 * id))
    else "n" ^ string_of_int id
  in
  let emitted = Hashtbl.create 64 in
  let rec emit id =
    if (not (Hashtbl.mem emitted id)) && not (Aig.is_input_edge aig (2 * id))
    then begin
      Hashtbl.replace emitted id ();
      if id <> 0 then begin
        let f0, f1 = Aig.fanins aig id in
        emit (Aig.node_of f0);
        emit (Aig.node_of f1);
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s %s\n%c%c 1\n"
             (node_name (Aig.node_of f0))
             (node_name (Aig.node_of f1))
             (node_name id)
             (if Aig.is_complement f0 then '0' else '1')
             (if Aig.is_complement f1 then '0' else '1'))
      end
    end
  in
  Array.iter
    (fun (po_name, e) ->
      let id = Aig.node_of e in
      if id = 0 then
        (* constant output *)
        Buffer.add_string buf
          (if Aig.is_complement e then
             Printf.sprintf ".names %s\n1\n" po_name
           else Printf.sprintf ".names %s\n" po_name)
      else begin
        emit id;
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n%c 1\n" (node_name id) po_name
             (if Aig.is_complement e then '0' else '1'))
      end)
    c.Circuit.outputs;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
