type t = { mutable bufs : int array array }

let create () = { bufs = [||] }

let ensure_slot t slot =
  let n = Array.length t.bufs in
  if slot >= n then begin
    let bufs = Array.make (max (slot + 1) (max 8 (2 * n))) [||] in
    Array.blit t.bufs 0 bufs 0 n;
    t.bufs <- bufs
  end

(* Next power of two >= n, so repeated acquisitions with slowly growing
   lengths settle instead of reallocating every time. *)
let round_up n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let ints t slot ~len =
  ensure_slot t slot;
  let buf = t.bufs.(slot) in
  if Array.length buf >= len then buf
  else begin
    let buf = Array.make (round_up len) 0 in
    t.bufs.(slot) <- buf;
    buf
  end

let ints_filled t slot ~len ~fill =
  let buf = ints t slot ~len in
  Array.fill buf 0 len fill;
  buf
