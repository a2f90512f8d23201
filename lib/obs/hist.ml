let buckets = 63

type t = {
  cells : int array;
  mutable n : int;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { cells = Array.make buckets 0; n = 0; total = 0; vmin = 0; vmax = 0 }

let clear t =
  Array.fill t.cells 0 buckets 0;
  t.n <- 0;
  t.total <- 0;
  t.vmin <- 0;
  t.vmax <- 0

(* Bucket of [v]: 0 for v <= 0, otherwise the bit-width of v capped at
   [buckets - 1], so bucket k >= 1 spans [2^(k-1), 2^k). *)
let bucket v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x <> 0 do
      incr b;
      x := !x lsr 1
    done;
    if !b > buckets - 1 then buckets - 1 else !b
  end

let add t v =
  let b = bucket v in
  t.cells.(b) <- t.cells.(b) + 1;
  if t.n = 0 then begin
    t.vmin <- v;
    t.vmax <- v
  end
  else begin
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v
  end;
  t.n <- t.n + 1;
  t.total <- t.total + v

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then 0. else float_of_int t.total /. float_of_int t.n
let min_value t = t.vmin
let max_value t = t.vmax

(* Largest value bucket [b] can hold: bucket b >= 1 covers
   [2^(b-1), 2^b). *)
let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1

let quantile t q =
  if t.n = 0 then 0
  else begin
    let target = q *. float_of_int t.n in
    let acc = ref 0 and b = ref 0 in
    while !b < buckets - 1 && float_of_int (!acc + t.cells.(!b)) < target do
      acc := !acc + t.cells.(!b);
      incr b
    done;
    let hi = bucket_hi !b in
    if hi > t.vmax then t.vmax else hi
  end

let merge a b =
  let t = create () in
  Array.blit a.cells 0 t.cells 0 buckets;
  Array.iteri (fun i c -> t.cells.(i) <- t.cells.(i) + c) b.cells;
  t.n <- a.n + b.n;
  t.total <- a.total + b.total;
  (match (a.n, b.n) with
  | 0, 0 -> ()
  | _, 0 ->
      t.vmin <- a.vmin;
      t.vmax <- a.vmax
  | 0, _ ->
      t.vmin <- b.vmin;
      t.vmax <- b.vmax
  | _, _ ->
      t.vmin <- min a.vmin b.vmin;
      t.vmax <- max a.vmax b.vmax);
  t

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf "n=%d mean=%.1f p50<=%d p95<=%d max=%d" t.n (mean t)
      (quantile t 0.5) (quantile t 0.95) t.vmax
