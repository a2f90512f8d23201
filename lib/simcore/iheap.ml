(* Struct-of-arrays binary min-heap: priorities, insertion sequence
   numbers (FIFO among equal priorities, like Heap) and two integer
   payload words live in parallel int arrays, so add/pop never touch the
   minor heap.  Pop writes its result into mutable out-fields instead of
   returning a tuple for the same reason. *)
type t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable pa : int array;
  mutable pb : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable out_prio : int;
  mutable out_a : int;
  mutable out_b : int;
}

let create () =
  {
    prio = Array.make 16 0;
    seq = Array.make 16 0;
    pa = Array.make 16 0;
    pb = Array.make 16 0;
    size = 0;
    next_seq = 0;
    out_prio = 0;
    out_a = 0;
    out_b = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.prio in
  let extend a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.prio <- extend t.prio;
  t.seq <- extend t.seq;
  t.pa <- extend t.pa;
  t.pb <- extend t.pb

(* Both sifts carry the moving entry in locals and shift the entries it
   passes into the hole, writing it once where it lands. *)
let move t ~src ~dst =
  t.prio.(dst) <- t.prio.(src);
  t.seq.(dst) <- t.seq.(src);
  t.pa.(dst) <- t.pa.(src);
  t.pb.(dst) <- t.pb.(src)

let place t i prio seq a b =
  t.prio.(i) <- prio;
  t.seq.(i) <- seq;
  t.pa.(i) <- a;
  t.pb.(i) <- b

let rec sift_up t i prio seq a b =
  let parent = (i - 1) / 2 in
  if i > 0 && (prio < t.prio.(parent) || (prio = t.prio.(parent) && seq < t.seq.(parent)))
  then begin
    move t ~src:parent ~dst:i;
    sift_up t parent prio seq a b
  end
  else place t i prio seq a b

let rec sift_down t i prio seq a b =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i prio seq a b
  else begin
    let r = l + 1 in
    let c =
      if r < t.size
         && (t.prio.(r) < t.prio.(l) || (t.prio.(r) = t.prio.(l) && t.seq.(r) < t.seq.(l)))
      then r
      else l
    in
    if t.prio.(c) < prio || (t.prio.(c) = prio && t.seq.(c) < seq) then begin
      move t ~src:c ~dst:i;
      sift_down t c prio seq a b
    end
    else place t i prio seq a b
  end

let add t ~prio a b =
  if t.size = Array.length t.prio then grow t;
  let i = t.size in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t i prio seq a b

let pop t =
  if t.size = 0 then false
  else begin
    t.out_prio <- t.prio.(0);
    t.out_a <- t.pa.(0);
    t.out_b <- t.pb.(0);
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.size in
      sift_down t 0 t.prio.(last) t.seq.(last) t.pa.(last) t.pb.(last)
    end;
    true
  end

let min_prio t = t.prio.(0)

let popped_prio t = t.out_prio

let popped_a t = t.out_a

let popped_b t = t.out_b

let clear t =
  t.size <- 0;
  t.next_seq <- 0
