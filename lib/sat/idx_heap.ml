module Veci = Step_util.Veci

type t = {
  gt : int -> int -> bool;
  heap : Veci.t;
  mutable pos : int array; (* key -> index in heap, -1 if absent *)
}

let create ~gt = { gt; heap = Veci.create (); pos = Array.make 64 (-1) }

let ensure_key t k =
  let n = Array.length t.pos in
  if k >= n then begin
    let pos = Array.make (max (2 * n) (k + 1)) (-1) in
    Array.blit t.pos 0 pos 0 n;
    t.pos <- pos
  end

let in_heap t k = k < Array.length t.pos && t.pos.(k) >= 0

let size t = Veci.length t.heap

let is_empty t = size t = 0

let swap t i j =
  let a = Veci.get t.heap i and b = Veci.get t.heap j in
  Veci.set t.heap i b;
  Veci.set t.heap j a;
  t.pos.(a) <- j;
  t.pos.(b) <- i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.gt (Veci.get t.heap i) (Veci.get t.heap parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let n = size t in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && t.gt (Veci.get t.heap l) (Veci.get t.heap !best) then best := l;
  if r < n && t.gt (Veci.get t.heap r) (Veci.get t.heap !best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let insert t k =
  ensure_key t k;
  if t.pos.(k) < 0 then begin
    Veci.push t.heap k;
    t.pos.(k) <- size t - 1;
    sift_up t (size t - 1)
  end

let remove_max t =
  if is_empty t then invalid_arg "Idx_heap.remove_max: empty";
  let top = Veci.get t.heap 0 in
  let last = Veci.pop t.heap in
  t.pos.(top) <- -1;
  if size t > 0 then begin
    Veci.set t.heap 0 last;
    t.pos.(last) <- 0;
    sift_down t 0
  end;
  top

let increased t k = if in_heap t k then sift_up t t.pos.(k)

let rebuild t keys =
  Veci.iter (fun k -> t.pos.(k) <- -1) t.heap;
  Veci.clear t.heap;
  List.iter (insert t) keys
