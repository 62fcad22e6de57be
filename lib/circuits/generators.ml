module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit
module Gate = Step_core.Gate
module Partition = Step_core.Partition

let full_adder m a b cin =
  let sum = Aig.xor_ m (Aig.xor_ m a b) cin in
  let carry =
    Aig.or_ m (Aig.and_ m a b) (Aig.and_ m cin (Aig.xor_ m a b))
  in
  (sum, carry)

let ripple_adder n =
  let m = Aig.create () in
  let a = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "a%d" i) m) in
  let b = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "b%d" i) m) in
  let cin = Aig.fresh_input ~name:"cin" m in
  let carry = ref cin in
  let sums =
    Array.to_list
      (Array.init n (fun i ->
           let s, c = full_adder m a.(i) b.(i) !carry in
           carry := c;
           (Printf.sprintf "s%d" i, s)))
  in
  Circuit.make ~name:(Printf.sprintf "add%d" n) m (sums @ [ ("cout", !carry) ])

let multiplier n =
  let m = Aig.create () in
  let a = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "a%d" i) m) in
  let b = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "b%d" i) m) in
  (* array multiplier: accumulate partial products row by row *)
  let width = 2 * n in
  let acc = Array.make width Aig.f in
  for j = 0 to n - 1 do
    let carry = ref Aig.f in
    for i = 0 to n - 1 do
      let pp = Aig.and_ m a.(i) b.(j) in
      let k = i + j in
      let s1 = Aig.xor_ m acc.(k) pp in
      let c1 = Aig.and_ m acc.(k) pp in
      let s2 = Aig.xor_ m s1 !carry in
      let c2 = Aig.and_ m s1 !carry in
      acc.(k) <- s2;
      carry := Aig.or_ m c1 c2
    done;
    (* propagate the row carry *)
    let k = ref (n + j) in
    while !carry <> Aig.f && !k < width do
      let s = Aig.xor_ m acc.(!k) !carry in
      let c = Aig.and_ m acc.(!k) !carry in
      acc.(!k) <- s;
      carry := c;
      incr k
    done
  done;
  Circuit.make ~name:(Printf.sprintf "mul%d" n) m
    (List.init width (fun i -> (Printf.sprintf "p%d" i, acc.(i))))

let comparator n =
  let m = Aig.create () in
  let a = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "a%d" i) m) in
  let b = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "b%d" i) m) in
  let eq = ref Aig.t_ and lt = ref Aig.f in
  for i = n - 1 downto 0 do
    let bit_eq = Aig.iff_ m a.(i) b.(i) in
    let bit_lt = Aig.and_ m (Aig.not_ a.(i)) b.(i) in
    lt := Aig.or_ m !lt (Aig.and_ m !eq bit_lt);
    eq := Aig.and_ m !eq bit_eq
  done;
  let gt = Aig.and_ m (Aig.not_ !eq) (Aig.not_ !lt) in
  Circuit.make ~name:(Printf.sprintf "cmp%d" n) m
    [ ("eq", !eq); ("lt", !lt); ("gt", gt) ]

let parity n =
  let m = Aig.create () in
  let xs = List.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "x%d" i) m) in
  Circuit.make ~name:(Printf.sprintf "par%d" n) m [ ("p", Aig.xor_list m xs) ]

let mux_tree k =
  let m = Aig.create () in
  let data =
    Array.init (1 lsl k) (fun i -> Aig.fresh_input ~name:(Printf.sprintf "d%d" i) m)
  in
  let sel = Array.init k (fun i -> Aig.fresh_input ~name:(Printf.sprintf "s%d" i) m) in
  (* level [l] splits on select bit [l] counted from the most significant,
     i.e. bit [k - 1 - l], so that data index i is selected by the binary
     value of (sel_{k-1} .. sel_0) with sel_0 least significant *)
  let rec build lo len level =
    if len = 1 then data.(lo)
    else
      let half = len / 2 in
      Aig.ite m
        sel.(k - 1 - level)
        (build (lo + half) half (level + 1))
        (build lo half (level + 1))
  in
  Circuit.make ~name:(Printf.sprintf "mux%d" k) m [ ("y", build 0 (1 lsl k) 0) ]

let decoder k =
  let m = Aig.create () in
  let xs = Array.init k (fun i -> Aig.fresh_input ~name:(Printf.sprintf "x%d" i) m) in
  let outputs =
    List.init (1 lsl k) (fun v ->
        let bits =
          List.init k (fun i ->
              if (v lsr i) land 1 = 1 then xs.(i) else Aig.not_ xs.(i))
        in
        (Printf.sprintf "y%d" v, Aig.and_list m bits))
  in
  Circuit.make ~name:(Printf.sprintf "dec%d" k) m outputs

let alu n =
  let m = Aig.create () in
  let a = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "a%d" i) m) in
  let b = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "b%d" i) m) in
  let op0 = Aig.fresh_input ~name:"op0" m in
  let op1 = Aig.fresh_input ~name:"op1" m in
  let carry = ref Aig.f in
  let outputs =
    List.init n (fun i ->
        let and_ = Aig.and_ m a.(i) b.(i) in
        let or_ = Aig.or_ m a.(i) b.(i) in
        let xor_ = Aig.xor_ m a.(i) b.(i) in
        let sum, c = full_adder m a.(i) b.(i) !carry in
        carry := c;
        let r = Aig.ite m op1 (Aig.ite m op0 sum xor_) (Aig.ite m op0 or_ and_) in
        (Printf.sprintf "r%d" i, r))
  in
  Circuit.make ~name:(Printf.sprintf "alu%d" n) m outputs

let barrel_shifter k =
  let m = Aig.create () in
  let n = 1 lsl k in
  let data = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "d%d" i) m) in
  let amount = Array.init k (fun i -> Aig.fresh_input ~name:(Printf.sprintf "s%d" i) m) in
  (* stage s rotates by 2^s when amount bit s is set *)
  let stage bits s =
    let shift = 1 lsl s in
    Array.init n (fun i ->
        Aig.ite m amount.(s) bits.((i - shift + n) mod n) bits.(i))
  in
  let out = ref data in
  for s = 0 to k - 1 do
    out := stage !out s
  done;
  Circuit.make ~name:(Printf.sprintf "bshift%d" k) m
    (List.init n (fun i -> (Printf.sprintf "y%d" i, !out.(i))))

let priority_encoder n =
  let m = Aig.create () in
  let req = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "r%d" i) m) in
  let bits = max 1 (int_of_float (ceil (log (float_of_int n) /. log 2.))) in
  (* highest index wins *)
  let none_above = Array.make n Aig.t_ in
  for i = n - 2 downto 0 do
    none_above.(i) <- Aig.and_ m none_above.(i + 1) (Aig.not_ req.(i + 1))
  done;
  let selected = Array.init n (fun i -> Aig.and_ m req.(i) none_above.(i)) in
  let outputs =
    List.init bits (fun b ->
        let terms =
          List.init n (fun i -> if (i lsr b) land 1 = 1 then selected.(i) else Aig.f)
        in
        (Printf.sprintf "q%d" b, Aig.or_list m terms))
  in
  let valid = Aig.or_list m (Array.to_list req) in
  Circuit.make ~name:(Printf.sprintf "prio%d" n) m (outputs @ [ ("valid", valid) ])

let popcount n =
  let m = Aig.create () in
  let xs = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "x%d" i) m) in
  (* chain of incrementers over a result register wide enough for n *)
  let bits =
    let rec go b = if 1 lsl b > n then b else go (b + 1) in
    go 1
  in
  let acc = Array.make bits Aig.f in
  Array.iter
    (fun x ->
      let carry = ref x in
      for b = 0 to bits - 1 do
        let s = Aig.xor_ m acc.(b) !carry in
        carry := Aig.and_ m acc.(b) !carry;
        acc.(b) <- s
      done)
    xs;
  Circuit.make ~name:(Printf.sprintf "pop%d" n) m
    (List.init bits (fun b -> (Printf.sprintf "c%d" b, acc.(b))))

let gray_encoder n =
  let m = Aig.create () in
  let xs = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "b%d" i) m) in
  let outputs =
    List.init n (fun i ->
        let g = if i = n - 1 then xs.(i) else Aig.xor_ m xs.(i) xs.(i + 1) in
        (Printf.sprintf "g%d" i, g))
  in
  Circuit.make ~name:(Printf.sprintf "gray%d" n) m outputs

let c17 () =
  let m = Aig.create () in
  let i name = Aig.fresh_input ~name m in
  let g1 = i "1" and g2 = i "2" and g3 = i "3" and g6 = i "6" and g7 = i "7" in
  let nand a b = Aig.not_ (Aig.and_ m a b) in
  let g10 = nand g1 g3 in
  let g11 = nand g3 g6 in
  let g16 = nand g2 g11 in
  let g19 = nand g11 g7 in
  let g22 = nand g10 g16 in
  let g23 = nand g16 g19 in
  Circuit.make ~name:"c17" m [ ("22", g22); ("23", g23) ]

let random_dag ~seed ~n_inputs ~n_gates ~n_outputs =
  let st = Random.State.make [| seed; 0xdeadbe |] in
  let m = Aig.create () in
  let nodes = ref [] in
  for i = 0 to n_inputs - 1 do
    nodes := Aig.fresh_input ~name:(Printf.sprintf "x%d" i) m :: !nodes
  done;
  let pick () =
    let l = !nodes in
    let e = List.nth l (Random.State.int st (List.length l)) in
    if Random.State.bool st then e else Aig.not_ e
  in
  for _ = 1 to n_gates do
    nodes := Aig.and_ m (pick ()) (pick ()) :: !nodes
  done;
  let outs = ref [] in
  let rec take k = function
    | e :: rest when k > 0 -> begin
        outs := e :: !outs;
        take (k - 1) rest
      end
    | _ -> ()
  in
  take n_outputs !nodes;
  Circuit.make ~name:(Printf.sprintf "rnd%d" seed) m
    (List.mapi (fun i e -> (Printf.sprintf "o%d" i, e)) !outs)

let random_tree_on st m edges =
  let node a b =
    match Random.State.int st 3 with
    | 0 -> Aig.and_ m a b
    | 1 -> Aig.or_ m a b
    | _ -> Aig.xor_ m a b
  in
  let leaf e = if Random.State.bool st then e else Aig.not_ e in
  (* combine in random order *)
  let arr = Array.of_list (List.map leaf edges) in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  match Array.to_list arr with
  | [] -> Aig.f
  | first :: rest -> List.fold_left node first rest

type planted = {
  circuit : Circuit.t;
  truth : Partition.t;
  gate : Gate.t;
}

let planted_cone ~seed ~na ~nb ~nc gate =
  let st = Random.State.make [| seed; 0x9141ed |] in
  let m = Aig.create () in
  let n = na + nb + nc in
  let xs = Array.init n (fun i -> Aig.fresh_input ~name:(Printf.sprintf "x%d" i) m) in
  let range lo len = List.init len (fun k -> lo + k) in
  let xa = range 0 na and xb = range na nb and xc = range (na + nb) nc in
  let edges l = List.map (fun i -> xs.(i)) l in
  let g = random_tree_on st m (edges xa @ edges xc) in
  let h = random_tree_on st m (edges xb @ edges xc) in
  let f = Gate.edge m gate g h in
  {
    circuit = Circuit.make ~name:(Printf.sprintf "planted%d" seed) m [ ("f", f) ];
    truth = Partition.make ~xa ~xb ~xc;
    gate;
  }
