(* Epoch-stamped integer map with O(1) reset.

   Each slot carries the epoch at which it was last written; a slot is
   "set" iff its stamp equals the current epoch, so [reset] is a single
   increment instead of walking a to-clear list. Stamps start at 0 and
   the epoch at 1, so fresh slots never read as set; the epoch is a
   63-bit counter and cannot realistically wrap. *)

type t = {
  mutable stamps : int array;
  mutable data : int array;
  mutable epoch : int;
}

let create ?(cap = 16) () =
  let cap = max cap 1 in
  { stamps = Array.make cap 0; data = Array.make cap 0; epoch = 1 }

let ensure t n =
  let old = Array.length t.stamps in
  if n > old then begin
    let cap = max (2 * old) n in
    let stamps = Array.make cap 0 in
    Array.blit t.stamps 0 stamps 0 old;
    t.stamps <- stamps;
    let data = Array.make cap 0 in
    Array.blit t.data 0 data 0 old;
    t.data <- data
  end

let reset t = t.epoch <- t.epoch + 1

let mem t i = i < Array.length t.stamps && t.stamps.(i) = t.epoch

let set t i v =
  ensure t (i + 1);
  t.stamps.(i) <- t.epoch;
  t.data.(i) <- v

let get t i = if mem t i then t.data.(i) else 0

let unset t i = if i < Array.length t.stamps then t.stamps.(i) <- 0
