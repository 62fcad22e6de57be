(* Even's vertex-connectivity search over unit-capacity max-flows.

   The split graph: vertex w is node 2w (in) and node 2w + 1 (out). Arcs
   come in pairs, arc a and its reverse a lxor 1: per vertex the arc
   in_w -> out_w of capacity 1, per edge (a, b) the arcs out_a -> in_b
   and out_b -> in_a of capacity n, which a flow of fewer than n units
   never fills. A minimum cut is therefore made of vertex arcs alone. *)

type net = {
  head : int array; (* arc -> node it enters *)
  base : int array; (* arc -> capacity *)
  cap : int array; (* arc -> residual capacity of the current flow *)
  next : int array; (* arc -> next arc leaving the same node, or -1 *)
  first : int array; (* node -> first arc leaving it, or -1 *)
  prev : int array; (* node -> arc the last search entered it by, or -1 *)
  queue : int array;
}

let build n adj =
  let m = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if adj.(i).(j) then incr m
    done
  done;
  let arcs = 2 * (n + (2 * !m)) in
  let head = Array.make arcs 0 and base = Array.make arcs 0 in
  let next = Array.make arcs (-1) and first = Array.make (2 * n) (-1) in
  let k = ref 0 in
  let arc tail node c =
    head.(!k) <- node;
    base.(!k) <- c;
    next.(!k) <- first.(tail);
    first.(tail) <- !k;
    incr k
  in
  let pair u v c =
    arc u v c;
    arc v u 0
  in
  for w = 0 to n - 1 do
    pair (2 * w) ((2 * w) + 1) 1
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if adj.(i).(j) then begin
        pair ((2 * i) + 1) (2 * j) n;
        pair ((2 * j) + 1) (2 * i) n
      end
    done
  done;
  {
    head;
    base;
    cap = Array.make arcs 0;
    next;
    first;
    prev = Array.make (2 * n) (-1);
    queue = Array.make (2 * n) 0;
  }

(* Breadth-first search of the residual graph from [source]; true when it
   reaches [sink]. [prev] then holds the path, and after a failed search
   it marks the source side of a minimum cut. *)
let search net source sink =
  Array.fill net.prev 0 (Array.length net.prev) (-1);
  net.prev.(source) <- Array.length net.head;
  net.queue.(0) <- source;
  let lo = ref 0 and hi = ref 1 in
  while !lo < !hi && net.prev.(sink) < 0 do
    let u = net.queue.(!lo) in
    incr lo;
    let a = ref net.first.(u) in
    while !a >= 0 do
      let v = net.head.(!a) in
      if net.cap.(!a) > 0 && net.prev.(v) < 0 then begin
        net.prev.(v) <- !a;
        net.queue.(!hi) <- v;
        incr hi
      end;
      a := net.next.(!a)
    done
  done;
  net.prev.(sink) >= 0

(* The number of vertex-disjoint paths from [src] to [dst], two distinct
   non-adjacent vertices, counted up to [limit]. Every augmenting path
   carries one unit, the capacity of a vertex arc. *)
let flow net ~src ~dst ~limit =
  Array.blit net.base 0 net.cap 0 (Array.length net.cap);
  let source = (2 * src) + 1 and sink = 2 * dst in
  let rec augment f =
    if f >= limit || not (search net source sink) then f
    else begin
      let v = ref sink in
      while !v <> source do
        let a = net.prev.(!v) in
        net.cap.(a) <- net.cap.(a) - 1;
        net.cap.(a lxor 1) <- net.cap.(a lxor 1) + 1;
        v := net.head.(a lxor 1)
      done;
      augment (f + 1)
    end
  in
  augment 0

(* The minimum cut of the last, failed search: out_w reached puts w with
   the source (XA), in_w reached alone puts w in the cut (XC). *)
let cut net n =
  Array.init n (fun w ->
      if net.prev.((2 * w) + 1) >= 0 then 0
      else if net.prev.(2 * w) >= 0 then 2
      else 1)

let minimum n adjacent ~below =
  if n < 2 || below <= 0 then None
  else begin
    let adj = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if adjacent i j then begin
          adj.(i).(j) <- true;
          adj.(j).(i) <- true
        end
      done
    done;
    let net = build n adj in
    let best = ref None and limit = ref below in
    (* a separator S below the limit leaves out one of v_0 .. v_|S|, so
       the sources stop at the limit, which falls as separators shrink *)
    let i = ref 0 in
    while !i < min !limit n do
      for j = !i + 1 to n - 1 do
        if !limit > 0 && not adj.(!i).(j) then begin
          let f = flow net ~src:!i ~dst:j ~limit:!limit in
          if f < !limit then begin
            best := Some (cut net n);
            limit := f
          end
        end
      done;
      incr i
    done;
    !best
  end
