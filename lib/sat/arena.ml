(* Flat clause arena: every clause is a contiguous block of ints inside
   one bank array, addressed by the index of its header word (a "ref").

   Block layout, starting at ref [r]:

     bank.(r)     header: bit 0 = learnt, bit 1 = removed, bit 2 = used,
                  bits 3.. = the clause's stable external id
     bank.(r+1)   size (number of literals)
     bank.(r+2)   LBD ("glue") slot; 0 for problem clauses
     bank.(r+3..) literals (Lit.t ints)

   Propagation walks blocks with plain int loads instead of chasing a
   boxed record and a boxed literal array per clause. Removal only flags
   the header (and books the wasted words); {!gc} compacts live blocks to
   the bottom of the bank, which is why callers address clauses through
   refs they are prepared to remap (the solver keeps an id -> ref
   directory and stores the id in the header for the reverse lookup). *)

type t = {
  mutable bank : int array;
  mutable top : int; (* next free word *)
  mutable wasted : int; (* words buried in removed blocks *)
}

let flag_learnt = 1

let flag_removed = 2

let flag_used = 4

let id_shift = 3

let header_words = 3

let create ?(cap = 1024) () =
  { bank = Array.make (max cap 16) 0; top = 0; wasted = 0 }

let bank a = a.bank

let top a = a.top

let wasted a = a.wasted

let ensure a n =
  if a.top + n > Array.length a.bank then begin
    let cap = ref (2 * Array.length a.bank) in
    while a.top + n > !cap do
      cap := 2 * !cap
    done;
    let bank = Array.make !cap 0 in
    Array.blit a.bank 0 bank 0 a.top;
    a.bank <- bank
  end

let alloc a ~id ~learnt lits n =
  ensure a (n + header_words);
  let r = a.top in
  let b = a.bank in
  b.(r) <- (id lsl id_shift) lor (if learnt then flag_learnt else 0);
  b.(r + 1) <- n;
  b.(r + 2) <- 0;
  Array.blit lits 0 b (r + header_words) n;
  a.top <- r + header_words + n;
  r

let id a r = a.bank.(r) lsr id_shift

let size a r = a.bank.(r + 1)

let learnt a r = a.bank.(r) land flag_learnt <> 0

let removed a r = a.bank.(r) land flag_removed <> 0

let remove a r =
  if a.bank.(r) land flag_removed = 0 then begin
    a.bank.(r) <- a.bank.(r) lor flag_removed;
    a.wasted <- a.wasted + size a r + header_words
  end

let used a r = a.bank.(r) land flag_used <> 0

let set_used a r = a.bank.(r) <- a.bank.(r) lor flag_used

let clear_used a r = a.bank.(r) <- a.bank.(r) land lnot flag_used

let lbd a r = a.bank.(r + 2)

let set_lbd a r v = a.bank.(r + 2) <- v

let lit a r i = a.bank.(r + header_words + i)

let lits a r = Array.sub a.bank (r + header_words) (size a r)

(* Compact the blocks listed in [live] (refs in ascending order) to the
   bottom of the bank, rewriting [live] in place with each block's new
   ref. Blocks move only downwards, so the in-place blit is safe. *)
let gc a live =
  let dst = ref 0 in
  for k = 0 to Step_util.Veci.length live - 1 do
    let r = Step_util.Veci.get live k in
    let w = size a r + header_words in
    let d = !dst in
    if d <> r then Array.blit a.bank r a.bank d w;
    Step_util.Veci.set live k d;
    dst := d + w
  done;
  a.top <- !dst;
  a.wasted <- 0
