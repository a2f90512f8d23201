type position = int64

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let root ~seed = mix (Int64.of_int (seed + 0x5bd1))

let[@inline] small_of p modulus =
  Int64.to_int (Int64.rem (Int64.shift_right_logical p 8) (Int64.of_int modulus))

let max_moves = 18

let[@inline] move_count p = 6 + small_of p 13

let[@inline] child p i = mix (Int64.add p (Int64.of_int ((i * 2) + 1)))

let moves p = List.init (move_count p) (child p)

let[@inline] eval p = small_of (mix p) 2001 - 1000

type entry = { e_depth : int; e_value : int }

(* Positions are already well-mixed 64-bit hashes, so their low bits
   index the table directly. *)
module Tbl = Hashtbl.Make (struct
  type t = position

  let equal = Int64.equal
  let hash = Int64.to_int
end)

type cache = entry Tbl.t

let create_cache () : cache = Tbl.create 4096

let cache_size c = Tbl.length c

let cache_entries c =
  List.sort compare (Tbl.fold (fun p e acc -> (p, e.e_depth, e.e_value) :: acc) c [])

type stats = { nodes : int; cache_hits : int; cache_stores : int }

let search ?cache ~depth ?(alpha = -100000) ?(beta = 100000) pos =
  let nodes = ref 0 and hits = ref 0 and stores = ref 0 in
  (* Move ordering scratch, one [max_moves] slice per remaining depth: a
     node at depth [d] keeps its children's evals and move indices, best
     first, in slice [d]; its descendants only touch lower slices. *)
  let evals = Array.make ((max 0 depth + 1) * max_moves) 0 in
  let order = Array.make ((max 0 depth + 1) * max_moves) 0 in
  let rec negamax depth alpha beta pos =
    incr nodes;
    if depth = 0 then eval pos
    else begin
      let cached =
        match cache with
        | Some c -> (
          match Tbl.find_opt c pos with
          | Some e when e.e_depth >= depth ->
            incr hits;
            Some e.e_value
          | _ -> None)
        | None -> None
      in
      match cached with
      | Some v -> v
      | None ->
        (* Order children by static eval, each evaluated once: better
           moves first makes pruning effective and subtree sizes
           variable.  The insertion is stable, so equal evals keep move
           order. *)
        let base = depth * max_moves in
        let count = move_count pos in
        for i = 0 to count - 1 do
          let e = eval (child pos i) in
          let k = ref (base + i) in
          while !k > base && evals.(!k - 1) < e do
            evals.(!k) <- evals.(!k - 1);
            order.(!k) <- order.(!k - 1);
            decr k
          done;
          evals.(!k) <- e;
          order.(!k) <- i
        done;
        (* A leaf's value is its static eval, already in [evals]. *)
        let rec loop best alpha k =
          if k = count then best
          else begin
            let v =
              if depth = 1 then begin
                incr nodes;
                -evals.(base + k)
              end
              else -negamax (depth - 1) (-beta) (-alpha) (child pos order.(base + k))
            in
            let best = max best v in
            let alpha = max alpha v in
            if alpha >= beta then best else loop best alpha (k + 1)
          end
        in
        let v = loop (-100000) alpha 0 in
        (match cache with
        | Some c ->
          incr stores;
          Tbl.replace c pos { e_depth = depth; e_value = v }
        | None -> ());
        v
    end
  in
  let v = negamax depth alpha beta pos in
  (v, { nodes = !nodes; cache_hits = !hits; cache_stores = !stores })

let best_root_move ?cache ~depth pos =
  let children = moves pos in
  let total = ref { nodes = 1; cache_hits = 0; cache_stores = 0 } in
  let best =
    List.fold_left
      (fun acc child ->
        let v, st = search ?cache ~depth:(depth - 1) child in
        let v = -v in
        total :=
          {
            nodes = !total.nodes + st.nodes;
            cache_hits = !total.cache_hits + st.cache_hits;
            cache_stores = !total.cache_stores + st.cache_stores;
          };
        match acc with
        | Some (_, bv) when bv >= v -> acc
        | _ -> Some (child, v))
      None children
  in
  match best with
  | Some (m, v) -> (m, v, !total)
  | None -> invalid_arg "Alphabeta.best_root_move: no moves"
