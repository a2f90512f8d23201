let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (log_sum /. float_of_int (List.length xs))

let variance = function
  | [] -> 0.0
  | xs ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sq /. float_of_int (List.length xs)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty"
  | x :: xs -> List.fold_left max x xs

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
    let sorted = List.sort compare xs in
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    List.nth sorted (rank - 1)

type histogram = { width : float; counts : (int, int) Hashtbl.t; mutable n : int }

let histogram ~bucket_width xs =
  let h = { width = bucket_width; counts = Hashtbl.create 16; n = 0 } in
  let add x =
    let b = int_of_float (floor (x /. bucket_width)) in
    let cur = Option.value ~default:0 (Hashtbl.find_opt h.counts b) in
    Hashtbl.replace h.counts b (cur + 1);
    h.n <- h.n + 1
  in
  List.iter add xs;
  h

let buckets h =
  Hashtbl.fold (fun b c acc -> (float_of_int b *. h.width, c) :: acc) h.counts []
  |> List.sort compare

let total h = h.n
