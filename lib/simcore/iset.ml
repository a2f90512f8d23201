let empty = min_int

type t = { mutable keys : int array; mutable count : int }

let create () = { keys = Array.make 16 empty; count = 0 }

let cardinal t = t.count

(* The capacity is a power of two.  Multiplying by an odd constant is a
   bijection on the low bits, so keys within one table-sized window
   (pending times are clustered) get distinct home slots. *)
let home keys k = (k * 0x1E3779B97F4A7C15) land (Array.length keys - 1)

(* The slot holding [k], or the empty slot ending its probe run. *)
let rec slot keys k i =
  if keys.(i) = k || keys.(i) = empty then i else slot keys k ((i + 1) land (Array.length keys - 1))

let mem t k = t.keys.(slot t.keys k (home t.keys k)) = k

let insert keys k =
  let i = slot keys k (home keys k) in
  if keys.(i) = k then false
  else begin
    keys.(i) <- k;
    true
  end

let add t k =
  if k = empty then invalid_arg "Iset.add: min_int";
  if 2 * (t.count + 1) > Array.length t.keys then begin
    let old = t.keys in
    t.keys <- Array.make (2 * Array.length old) empty;
    Array.iter (fun k -> if k <> empty then ignore (insert t.keys k)) old
  end;
  let added = insert t.keys k in
  if added then t.count <- t.count + 1;
  added

let remove t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = slot keys k (home keys k) in
  if keys.(i) = k then begin
    (* Shift back every following key of the run whose home does not
       lie cyclically in (hole, its slot], then empty the last hole. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      let h = home keys keys.(!j) in
      let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    t.count <- t.count - 1
  end

let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0
  end
