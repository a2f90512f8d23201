(* Reference kernels: the straightforward list-based LZ77 match finder,
   the BWT that sorts each block twice, the alpha-beta search that
   evaluates children inside its comparator, and the list-history text
   generator.  They are slow and obviously right; the optimized kernels
   in lib/workloads must agree with them result for result and count for
   count (test_workloads_prop.ml). *)

module Lz77 = struct
  type token = Workloads.Lz77.token =
    | Literal of char
    | Match of { distance : int; length : int }

  type result = Workloads.Lz77.result = {
    tokens : token list;
    compressed_bits : int;
    work : int;
  }

  type level = Workloads.Lz77.level = Fast | Best

  let window_size = 32768

  let min_match = 3

  let max_match = 258

  let hash3 s i =
    (Char.code s.[i] * 131 * 131) + (Char.code s.[i + 1] * 131) + Char.code s.[i + 2]

  let hash_buckets = 4096

  let compress ?(window = window_size) ?(level = Best) input =
    let max_chain = match level with Fast -> 4 | Best -> 16 in
    let n = String.length input in
    let heads = Array.make hash_buckets [] in
    let work = ref 0 in
    let tokens = ref [] in
    let bits = ref 0 in
    let match_length i j =
      (* Length of the common prefix of input[i..] and input[j..]. *)
      let rec go k =
        if k >= max_match || j + k >= n || input.[i + k] <> input.[j + k] then k else go (k + 1)
      in
      let len = go 0 in
      work := !work + len + 1;
      len
    in
    let emit tok =
      tokens := tok :: !tokens;
      work := !work + 2;
      bits := !bits + (match tok with Literal _ -> 9 | Match _ -> 20)
    in
    (* Best (distance, length) match at position i against the current
       dictionary, without inserting i. *)
    let find_match i =
      if i + min_match > n then (0, 0)
      else begin
        let h = hash3 input i mod hash_buckets in
        work := !work + 1;
        List.fold_left
          (fun (bd, bl) j ->
            if i - j <= window then begin
              let l = match_length j i in
              if l > bl then (i - j, l) else (bd, bl)
            end
            else (bd, bl))
          (0, 0)
          (List.filteri (fun k _ -> k < max_chain) heads.(h))
      end
    in
    let insert i =
      if i + min_match <= n then begin
        let h = hash3 input i mod hash_buckets in
        let candidates = heads.(h) in
        heads.(h) <-
          i
          ::
          (if List.length candidates > 32 then List.filteri (fun k _ -> k < 16) candidates
           else candidates);
        work := !work + 1
      end
    in
    let pos = ref 0 in
    while !pos < n do
      let i = !pos in
      let distance, length = find_match i in
      insert i;
      if length >= min_match then begin
        (* Lazy matching (deflate only): when the next position matches
           longer, emit a literal now and take the longer match there. *)
        let take_lazy =
          level = Best && i + 1 + min_match <= n
          &&
          let _, next_len = find_match (i + 1) in
          next_len > length
        in
        if take_lazy then begin
          emit (Literal input.[i]);
          pos := i + 1
        end
        else begin
          emit (Match { distance; length });
          for k = i + 1 to min (i + length - 1) (n - min_match) do
            insert k
          done;
          pos := i + length
        end
      end
      else begin
        emit (Literal input.[i]);
        pos := i + 1
      end
    done;
    { tokens = List.rev !tokens; compressed_bits = !bits; work = !work }
end

module Bwt = struct
  type transformed = Workloads.Bwt.transformed = { data : string; primary : int }

  (* Compare rotations i and j of s without materializing them. *)
  let compare_rotations s count i j =
    let n = String.length s in
    let rec go k =
      if k = n then 0
      else begin
        incr count;
        let ci = s.[(i + k) mod n] and cj = s.[(j + k) mod n] in
        if ci <> cj then compare ci cj else go (k + 1)
      end
    in
    go 0

  let sorted_rotations s count =
    let n = String.length s in
    let idx = Array.init n Fun.id in
    Array.sort (compare_rotations s count) idx;
    idx

  let transform s =
    let n = String.length s in
    if n = 0 then { data = ""; primary = 0 }
    else begin
      let count = ref 0 in
      let idx = sorted_rotations s count in
      let data = Bytes.create n in
      let primary = ref 0 in
      Array.iteri
        (fun row i ->
          if i = 0 then primary := row;
          Bytes.set data row s.[(i + n - 1) mod n])
        idx;
      { data = Bytes.to_string data; primary = !primary }
    end

  let transform_work s =
    let count = ref 0 in
    if String.length s > 0 then ignore (sorted_rotations s count);
    !count
end

module Alphabeta = struct
  type position = int64

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let small_of p modulus =
    Int64.to_int (Int64.rem (Int64.shift_right_logical p 8) (Int64.of_int modulus))

  let moves p =
    let count = 6 + small_of p 13 in
    List.init count (fun i -> mix (Int64.add p (Int64.of_int ((i * 2) + 1))))

  let eval p = small_of (mix p) 2001 - 1000

  type entry = { e_depth : int; e_value : int }

  type cache = (position, entry) Hashtbl.t

  let create_cache () : cache = Hashtbl.create 4096

  let cache_entries (c : cache) =
    List.sort compare (Hashtbl.fold (fun p e acc -> (p, e.e_depth, e.e_value) :: acc) c [])

  type stats = Workloads.Alphabeta.stats = { nodes : int; cache_hits : int; cache_stores : int }

  let search ?cache ~depth ?(alpha = -100000) ?(beta = 100000) pos =
    let nodes = ref 0 and hits = ref 0 and stores = ref 0 in
    let rec negamax depth alpha beta pos =
      incr nodes;
      if depth = 0 then eval pos
      else begin
        let cached =
          match cache with
          | Some c -> (
            match Hashtbl.find_opt c pos with
            | Some e when e.e_depth >= depth ->
              incr hits;
              Some e.e_value
            | _ -> None)
          | None -> None
        in
        match cached with
        | Some v -> v
        | None ->
          let children = moves pos in
          (* Order children by static eval: better moves first makes
             pruning effective and subtree sizes variable. *)
          let ordered =
            List.sort (fun a b -> compare (eval b) (eval a)) children
          in
          let rec loop best alpha = function
            | [] -> best
            | child :: rest ->
              let v = -negamax (depth - 1) (-beta) (-alpha) child in
              let best = max best v in
              let alpha = max alpha v in
              if alpha >= beta then best else loop best alpha rest
          in
          let v = loop (-100000) alpha ordered in
          (match cache with
          | Some c ->
            incr stores;
            Hashtbl.replace c pos { e_depth = depth; e_value = v }
          | None -> ());
          v
      end
    in
    let v = negamax depth alpha beta pos in
    (v, { nodes = !nodes; cache_hits = !hits; cache_stores = !stores })
end

module Textgen = struct
  let repetitive_text rng ~bytes ~redundancy =
    if redundancy < 0.0 || redundancy > 1.0 then
      invalid_arg "Textgen.repetitive_text: redundancy must be in [0,1]";
    let buf = Buffer.create (bytes + 128) in
    let window = 16 in
    let history = ref [] in
    let emit s =
      Buffer.add_string buf s;
      Buffer.add_char buf ' '
    in
    while Buffer.length buf < bytes do
      let reuse = !history <> [] && Simcore.Rng.chance rng redundancy in
      if reuse then emit (Simcore.Rng.pick rng (Array.of_list !history))
      else begin
        let s = Workloads.Textgen.sentence rng ~min_words:4 ~max_words:12 in
        history := s :: (if List.length !history >= window then List.filteri (fun i _ -> i < window - 1) !history else !history);
        emit s
      end
    done;
    Buffer.contents buf
end
