(* Round-trip properties for every workload codec, driven by Check.Runner:
   decode (encode x) = x over random inputs, shrinking any failure to a
   minimal string.  Equivalence properties: the optimized kernels return
   exactly what the reference kernels in ref_kernels.ml return, work
   counters included. *)

module G = QCheck2.Gen
module R = Check.Runner
module W = Workloads
module Ref = Ref_kernels

let quoted s = Printf.sprintf "%S" s

(* Short repetitive-ish strings: a small alphabet makes matches, runs and
   dictionary hits actually occur, so the interesting codec paths run. *)
let text_gen ?(max_len = 120) () =
  G.string_size ~gen:(G.char_range 'a' 'e') (G.int_range 0 max_len)

let byte_gen ?(max_len = 80) () =
  G.string_size ~gen:(G.char_range '\000' '\255') (G.int_range 0 max_len)

(* ------------------------------------------------------------------ *)
(* LZ77                                                                *)

let lz77_roundtrip () =
  List.iter
    (fun (label, level) ->
      R.run_prop_exn ~print:quoted ~name:("lz77 roundtrip " ^ label) (text_gen ())
        (fun s -> W.Lz77.decompress (W.Lz77.compress ~level s).W.Lz77.tokens = s))
    [ ("fast", W.Lz77.Fast); ("best", W.Lz77.Best) ]

let lz77_roundtrip_bytes () =
  (* Arbitrary bytes and a tiny window force distance wrap-around. *)
  R.run_prop_exn ~print:quoted ~name:"lz77 roundtrip bytes small window" (byte_gen ())
    (fun s -> W.Lz77.decompress (W.Lz77.compress ~window:16 s).W.Lz77.tokens = s)

(* Long, low-entropy inputs: the reference's buckets overflow their cap
   and get truncated, and runs reach the maximum match length. *)
let chain_text_gen =
  G.bind (G.int_range 1 4) (fun k ->
      G.string_size
        ~gen:(G.char_range 'a' (Char.chr (Char.code 'a' + k - 1)))
        (G.int_range 0 1500))

let level_name = function W.Lz77.Fast -> "fast" | W.Lz77.Best -> "best"

let lz77_matches_reference () =
  let gen =
    G.triple
      (G.oneof [ chain_text_gen; text_gen ~max_len:400 (); byte_gen () ])
      (G.oneofl [ W.Lz77.Fast; W.Lz77.Best ])
      (G.oneofl [ 16; W.Lz77.window_size ])
  in
  R.run_prop_exn
    ~print:(fun (s, level, window) ->
      Printf.sprintf "level=%s window=%d %s" (level_name level) window (quoted s))
    ~name:"lz77 compress = reference (tokens, bits, work)" gen
    (fun (s, level, window) ->
      W.Lz77.compress ~window ~level s = Ref.Lz77.compress ~window ~level s)

let lz77_matches_reference_on_text () =
  (* 8 KiB blocks of the kind 164.gzip compresses. *)
  let text =
    W.Textgen.repetitive_text (Simcore.Rng.create 7) ~bytes:(4 * 8192) ~redundancy:0.4
  in
  List.iter
    (fun level ->
      for b = 0 to 3 do
        let block = String.sub text (b * 8192) 8192 in
        if W.Lz77.compress ~level block <> Ref.Lz77.compress ~level block then
          Alcotest.failf "block %d at level %s differs from the reference" b (level_name level)
      done)
    [ W.Lz77.Fast; W.Lz77.Best ]

(* ------------------------------------------------------------------ *)
(* BWT + MTF + RLE                                                     *)

let bwt_roundtrip () =
  R.run_prop_exn ~print:quoted ~name:"bwt inverse . transform = id" (text_gen ~max_len:60 ())
    (fun s -> W.Bwt.inverse (W.Bwt.transform s) = s)

(* Periodic blocks have equal rotations, the comparator's other count. *)
let periodic_gen =
  G.map2
    (fun unit k -> String.concat "" (List.init k (fun _ -> unit)))
    (G.string_size ~gen:(G.char_range 'a' 'c') (G.int_range 1 4))
    (G.int_range 1 12)

let bwt_matches_reference () =
  R.run_prop_exn ~print:quoted ~name:"bwt transform_with_work = reference (transform, work)"
    (G.oneof [ text_gen ~max_len:200 (); byte_gen (); periodic_gen ])
    (fun s -> W.Bwt.transform_with_work s = (Ref.Bwt.transform s, Ref.Bwt.transform_work s))

let mtf_roundtrip () =
  R.run_prop_exn ~print:quoted ~name:"mtf inverse . mtf = id" (byte_gen ())
    (fun s -> W.Bwt.move_to_front_inverse (W.Bwt.move_to_front s) = s)

let rle_roundtrip () =
  R.run_prop_exn
    ~print:(fun l -> "[" ^ String.concat ";" (List.map string_of_int l) ^ "]")
    ~name:"rle inverse . rle = id"
    (G.list_size (G.int_range 0 20) (G.int_bound 255))
    (fun l -> W.Bwt.run_length_inverse (W.Bwt.run_length l) = l)

let bzip2_chain_roundtrip () =
  (* The full per-block bzip2 pipeline: BWT, MTF, RLE and back. *)
  R.run_prop_exn ~print:quoted ~name:"bwt+mtf+rle chain" (text_gen ~max_len:60 ())
    (fun s ->
      let t = W.Bwt.transform s in
      let coded = W.Bwt.run_length (W.Bwt.move_to_front t.W.Bwt.data) in
      let data = W.Bwt.move_to_front_inverse (W.Bwt.run_length_inverse coded) in
      W.Bwt.inverse { t with W.Bwt.data } = s)

(* ------------------------------------------------------------------ *)
(* Alpha-beta search and text generation                               *)

let alphabeta_matches_reference () =
  (* A sequence of searches sharing one cache (or none), so later searches
     hit entries the earlier ones stored. *)
  let gen =
    G.pair G.bool (G.list_size (G.int_range 1 3) (G.pair (G.int_bound 10_000) (G.int_range 0 3)))
  in
  R.run_prop_exn
    ~print:(fun (cached, searches) ->
      Printf.sprintf "cache=%b [%s]" cached
        (String.concat "; "
           (List.map (fun (seed, depth) -> Printf.sprintf "seed %d depth %d" seed depth) searches)))
    ~name:"alphabeta search = reference (value, stats, cache)" gen
    (fun (cached, searches) ->
      let cache = if cached then Some (W.Alphabeta.create_cache ()) else None in
      let ref_cache = if cached then Some (Ref.Alphabeta.create_cache ()) else None in
      List.for_all
        (fun (seed, depth) ->
          let pos = W.Alphabeta.root ~seed in
          W.Alphabeta.search ?cache ~depth pos = Ref.Alphabeta.search ?cache:ref_cache ~depth pos)
        searches
      &&
      match (cache, ref_cache) with
      | Some c, Some rc -> W.Alphabeta.cache_entries c = Ref.Alphabeta.cache_entries rc
      | _ -> true)

let textgen_matches_reference () =
  let gen = G.triple (G.int_bound 10_000) (G.int_range 0 4000) (G.int_range 0 10) in
  R.run_prop_exn
    ~print:(fun (seed, bytes, r) -> Printf.sprintf "seed=%d bytes=%d redundancy=%d/10" seed bytes r)
    ~name:"repetitive_text = reference" gen
    (fun (seed, bytes, r) ->
      let redundancy = float_of_int r /. 10.0 in
      W.Textgen.repetitive_text (Simcore.Rng.create seed) ~bytes ~redundancy
      = Ref.Textgen.repetitive_text (Simcore.Rng.create seed) ~bytes ~redundancy)

(* ------------------------------------------------------------------ *)
(* Huffman                                                             *)

let huffman_roundtrip () =
  R.run_prop_exn
    ~print:(fun l -> "[" ^ String.concat ";" (List.map string_of_int l) ^ "]")
    ~name:"huffman decode . encode = id"
    (G.list_size (G.int_range 1 80) (G.int_bound 15))
    (fun symbols ->
      let freqs = Hashtbl.create 16 in
      List.iter
        (fun s -> Hashtbl.replace freqs s (1 + Option.value ~default:0 (Hashtbl.find_opt freqs s)))
        symbols;
      let pairs =
        List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) freqs [])
      in
      match W.Huffman.build pairs with
      | None -> false (* non-empty symbol list must build a tree *)
      | Some tree ->
        let lengths = W.Huffman.code_lengths tree in
        let codes = W.Huffman.canonical_codes lengths in
        W.Huffman.is_prefix_free lengths
        && W.Huffman.decode codes (W.Huffman.encode codes symbols) = symbols)

(* ------------------------------------------------------------------ *)
(* LZW dictionary compression                                          *)

let dict_roundtrip () =
  (* Fixed-interval restarts: decompressing the whole code stream with
     the restart indices recovered from the independent segments must
     reproduce the input (the Y-branch legality argument). *)
  let gen = G.pair (text_gen ~max_len:200 ()) (G.int_range 8 64) in
  R.run_prop_exn
    ~print:(fun (s, k) -> Printf.sprintf "interval=%d %s" k (quoted s))
    ~name:"dict_compress decompress . compress = id" gen
    (fun (s, k) ->
      let policy = W.Dict_compress.Fixed_interval k in
      let whole = W.Dict_compress.compress ~policy s in
      let segs = W.Dict_compress.compress_segments ~policy s in
      let restarts_at =
        (* Code indices where a new dictionary lifetime begins: the
           running total of the preceding segments' code counts. *)
        List.tl
          (List.rev
             (List.fold_left
                (fun acc (_, r) ->
                  match acc with
                  | prev :: _ -> (prev + List.length r.W.Dict_compress.codes) :: acc
                  | [] -> assert false)
                [ 0 ] segs))
      in
      W.Dict_compress.decompress ~codes:whole.W.Dict_compress.codes ~restarts_at = s)

let () =
  Alcotest.run "workloads-prop"
    [
      ( "lz77",
        [
          Alcotest.test_case "roundtrip both levels" `Quick lz77_roundtrip;
          Alcotest.test_case "roundtrip bytes, small window" `Quick lz77_roundtrip_bytes;
          Alcotest.test_case "equals reference" `Quick lz77_matches_reference;
          Alcotest.test_case "equals reference on text blocks" `Quick
            lz77_matches_reference_on_text;
        ] );
      ( "bwt",
        [
          Alcotest.test_case "bwt roundtrip" `Quick bwt_roundtrip;
          Alcotest.test_case "bwt equals reference" `Quick bwt_matches_reference;
          Alcotest.test_case "mtf roundtrip" `Quick mtf_roundtrip;
          Alcotest.test_case "rle roundtrip" `Quick rle_roundtrip;
          Alcotest.test_case "full chain roundtrip" `Quick bzip2_chain_roundtrip;
        ] );
      ( "alphabeta",
        [ Alcotest.test_case "search equals reference" `Quick alphabeta_matches_reference ] );
      ( "textgen",
        [
          Alcotest.test_case "repetitive_text equals reference" `Quick
            textgen_matches_reference;
        ] );
      ( "huffman", [ Alcotest.test_case "canonical roundtrip" `Quick huffman_roundtrip ] );
      ( "dict", [ Alcotest.test_case "fixed-interval roundtrip" `Quick dict_roundtrip ] );
    ]
