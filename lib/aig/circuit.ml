type t = {
  name : string;
  aig : Aig.t;
  outputs : (string * Aig.lit) array;
}

let make ?(name = "circuit") aig outputs =
  { name; aig; outputs = Array.of_list outputs }

let n_inputs c = Aig.n_inputs c.aig

let n_outputs c = Array.length c.outputs

let output c i = snd c.outputs.(i)

let output_name c i = fst c.outputs.(i)

let check_output_index c i =
  if i < 0 || i >= n_outputs c then
    invalid_arg
      (Printf.sprintf "po %d out of range (circuit has %d outputs)" i
         (n_outputs c))

let find_output c name =
  let rec go i =
    if i >= Array.length c.outputs then raise Not_found
    else if fst c.outputs.(i) = name then snd c.outputs.(i)
    else go (i + 1)
  in
  go 0

let support_sizes c =
  Array.map (fun (_, e) -> List.length (Aig.support c.aig e)) c.outputs

let max_support c = Array.fold_left max 0 (support_sizes c)

let stats c =
  Printf.sprintf "%s: #In=%d #Out=%d #InM=%d #And=%d" c.name (n_inputs c)
    (n_outputs c) (max_support c) (Aig.n_ands c.aig)

(* A fresh manager with every input of [c], same indices and names, and
   the listed outputs imported into it. *)
let rebuild c outputs =
  let fresh = Aig.create () in
  let inputs =
    Array.init (n_inputs c) (fun i ->
        Aig.fresh_input ~name:(Aig.input_name c.aig i) fresh)
  in
  make ~name:c.name fresh
    (List.map
       (fun (name, e) ->
         (name, Aig.import fresh ~src:c.aig ~map_input:(Array.get inputs) e))
       outputs)

let compact c = rebuild c (Array.to_list c.outputs)

let cone c i = rebuild c [ c.outputs.(i) ]
