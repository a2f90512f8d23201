(* Correctness tests for the algorithm substrates behind the eleven
   mini-workloads: compression round-trips, search equivalences, parser
   behaviour, flow optimality, B-tree invariants, interpreter semantics,
   and compiler semantic preservation. *)

module W = Workloads

let qtest ?(count = 100) ~print name gen prop =
  Alcotest.test_case name `Quick (fun () -> Check.Runner.run_prop_exn ~count ~print ~name gen prop)

let quoted = QCheck2.Print.string

let print_ints = QCheck2.Print.(list int)

let ascii_string =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 300))

(* ------------------------------------------------------------------ *)
(* Textgen                                                             *)

let textgen_size () =
  let rng = Simcore.Rng.create 1 in
  let t = W.Textgen.text rng ~bytes:1000 in
  Alcotest.(check bool) "at least requested" true (String.length t >= 1000)

let textgen_deterministic () =
  let t1 = W.Textgen.text (Simcore.Rng.create 5) ~bytes:500 in
  let t2 = W.Textgen.text (Simcore.Rng.create 5) ~bytes:500 in
  Alcotest.(check string) "same" t1 t2

let textgen_redundancy_compresses_better () =
  let plain = W.Textgen.repetitive_text (Simcore.Rng.create 2) ~bytes:20000 ~redundancy:0.0 in
  let redundant =
    W.Textgen.repetitive_text (Simcore.Rng.create 2) ~bytes:20000 ~redundancy:0.8
  in
  let r1 = W.Lz77.compress plain and r2 = W.Lz77.compress redundant in
  Alcotest.(check bool) "redundant text compresses smaller" true
    (W.Lz77.compressed_ratio ~original:redundant r2
     < W.Lz77.compressed_ratio ~original:plain r1)

(* ------------------------------------------------------------------ *)
(* LZ77                                                                *)

let lz77_roundtrip_text () =
  let text = W.Textgen.text (Simcore.Rng.create 3) ~bytes:5000 in
  let r = W.Lz77.compress text in
  Alcotest.(check string) "roundtrip" text (W.Lz77.decompress r.W.Lz77.tokens)

let lz77_roundtrip_prop =
  qtest "lz77 roundtrip on random strings" ~print:quoted ascii_string (fun s ->
      W.Lz77.decompress (W.Lz77.compress s).W.Lz77.tokens = s)

let lz77_compresses_repetition () =
  let s = String.concat "" (List.init 100 (fun _ -> "abcdefgh")) in
  let r = W.Lz77.compress s in
  Alcotest.(check bool) "ratio < 0.5" true (W.Lz77.compressed_ratio ~original:s r < 0.5)

let lz77_window_respected =
  qtest "match distances within window" ~print:quoted ascii_string (fun s ->
      let r = W.Lz77.compress ~window:64 s in
      List.for_all
        (function
          | W.Lz77.Literal _ -> true
          | W.Lz77.Match { distance; length } ->
            distance >= 1 && distance <= 64 && length >= W.Lz77.min_match)
        r.W.Lz77.tokens)

let lz77_empty () =
  let r = W.Lz77.compress "" in
  Alcotest.(check int) "no tokens" 0 (List.length r.W.Lz77.tokens)

(* ------------------------------------------------------------------ *)
(* BWT / MTF / RLE / Huffman                                           *)

let bwt_roundtrip_known () =
  let s = "banana_band" in
  Alcotest.(check string) "roundtrip" s (W.Bwt.inverse (W.Bwt.transform s))

let bwt_roundtrip_prop =
  qtest ~count:60 "bwt roundtrip" ~print:quoted
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'd') (int_range 0 80))
    (fun s -> W.Bwt.inverse (W.Bwt.transform s) = s)

let mtf_roundtrip_prop =
  qtest "mtf roundtrip" ~print:quoted ascii_string (fun s ->
      W.Bwt.move_to_front_inverse (W.Bwt.move_to_front s) = s)

let rle_roundtrip_prop =
  qtest "rle roundtrip" ~print:print_ints QCheck2.Gen.(list (int_bound 5)) (fun codes ->
      W.Bwt.run_length_inverse (W.Bwt.run_length codes) = codes)

let rle_compresses_runs () =
  let runs = W.Bwt.run_length [ 0; 0; 0; 0; 1; 1; 2 ] in
  Alcotest.(check (list (pair int int))) "runs" [ (0, 4); (1, 2); (2, 1) ] runs

let huffman_prefix_free () =
  let freqs = [ (0, 50); (1, 20); (2, 20); (3, 10) ] in
  match W.Huffman.build freqs with
  | None -> Alcotest.fail "expected tree"
  | Some t ->
    Alcotest.(check bool) "kraft" true (W.Huffman.is_prefix_free (W.Huffman.code_lengths t))

let huffman_frequent_shorter () =
  let freqs = [ (0, 100); (1, 1); (2, 1); (3, 1) ] in
  match W.Huffman.build freqs with
  | None -> Alcotest.fail "expected tree"
  | Some t ->
    let lengths = W.Huffman.code_lengths t in
    let len s = List.assoc s lengths in
    Alcotest.(check bool) "common symbol has shortest code" true (len 0 <= len 1)

let huffman_beats_fixed =
  qtest ~count:60 "huffman no worse than fixed-width" ~print:print_ints
    QCheck2.Gen.(list_size (int_range 2 200) (int_bound 7))
    (fun symbols ->
      let freqs =
        List.sort_uniq compare symbols
        |> List.map (fun s -> (s, List.length (List.filter (( = ) s) symbols)))
      in
      match W.Huffman.build freqs with
      | None -> symbols = []
      | Some t ->
        let lengths = W.Huffman.code_lengths t in
        let bits = W.Huffman.encoded_bits lengths symbols in
        let distinct = List.length freqs in
        let fixed = max 1 (int_of_float (ceil (log (float_of_int distinct) /. log 2.0))) in
        bits <= (fixed * List.length symbols) + distinct)

let huffman_empty () =
  Alcotest.(check bool) "no tree on empty" true (W.Huffman.build [] = None)

let huffman_encode_decode_roundtrip =
  qtest ~count:80 "huffman encode/decode roundtrip" ~print:print_ints
    QCheck2.Gen.(list_size (int_range 1 150) (int_bound 9))
    (fun symbols ->
      let freqs =
        List.sort_uniq compare symbols
        |> List.map (fun s -> (s, List.length (List.filter (( = ) s) symbols)))
      in
      match W.Huffman.build freqs with
      | None -> false
      | Some tree ->
        let codes = W.Huffman.canonical_codes (W.Huffman.code_lengths tree) in
        W.Huffman.decode codes (W.Huffman.encode codes symbols) = symbols)

let huffman_canonical_prefix_free () =
  let lengths = [ (0, 1); (1, 2); (2, 3); (3, 3) ] in
  let codes = W.Huffman.canonical_codes lengths in
  (* No code is a prefix of another. *)
  let is_prefix a b =
    List.length a < List.length b
    && a = List.filteri (fun i _ -> i < List.length a) b
  in
  List.iter
    (fun (s1, c1) ->
      List.iter
        (fun (s2, c2) ->
          if s1 <> s2 then
            Alcotest.(check bool)
              (Printf.sprintf "code %d not prefix of %d" s1 s2)
              false (is_prefix c1 c2))
        codes)
    codes

(* The full bzip2 chain both ways: BWT -> MTF -> RLE -> Huffman bits and
   back to the original block. *)
let bzip2_chain_roundtrip () =
  let rng = Simcore.Rng.create 77 in
  let block = W.Textgen.text rng ~bytes:900 in
  let transformed = W.Bwt.transform block in
  let mtf = W.Bwt.move_to_front transformed.W.Bwt.data in
  let rle = W.Bwt.run_length mtf in
  let symbols = List.concat_map (fun (s, n) -> [ s; n ]) rle in
  let freqs =
    List.sort_uniq compare symbols
    |> List.map (fun s -> (s, List.length (List.filter (( = ) s) symbols)))
  in
  let tree = Option.get (W.Huffman.build freqs) in
  let codes = W.Huffman.canonical_codes (W.Huffman.code_lengths tree) in
  let bits = W.Huffman.encode codes symbols in
  (* Decode all the way back. *)
  let decoded = W.Huffman.decode codes bits in
  let rec pairs = function
    | s :: n :: rest -> (s, n) :: pairs rest
    | [] -> []
    | _ -> Alcotest.fail "odd symbol stream"
  in
  let mtf' = W.Bwt.run_length_inverse (pairs decoded) in
  let data' = W.Bwt.move_to_front_inverse mtf' in
  let block' = W.Bwt.inverse { W.Bwt.data = data'; primary = transformed.W.Bwt.primary } in
  Alcotest.(check string) "full chain roundtrip" block block'

(* ------------------------------------------------------------------ *)
(* Dict_compress (Figure 1)                                            *)

let dict_fixed_interval_restarts () =
  let text = W.Textgen.text (Simcore.Rng.create 4) ~bytes:4000 in
  let r = W.Dict_compress.compress ~policy:(W.Dict_compress.Fixed_interval 1000) text in
  Alcotest.(check bool) "several restarts" true (r.W.Dict_compress.restarts >= 3);
  let total_len =
    List.fold_left (fun acc (_, l) -> acc + l) 0 r.W.Dict_compress.segments
  in
  Alcotest.(check int) "segments cover input" (String.length text) total_len

let dict_heuristic_restarts_eventually () =
  (* Incompressible input defeats the dictionary, triggering the
     heuristic restart of Figure 1a. *)
  let rng = Simcore.Rng.create 11 in
  let buf = Buffer.create 40000 in
  for _ = 1 to 40000 do
    Buffer.add_char buf (Char.chr (Simcore.Rng.int rng 256))
  done;
  let r = W.Dict_compress.compress ~policy:W.Dict_compress.Heuristic (Buffer.contents buf) in
  Alcotest.(check bool) "heuristic fired" true (r.W.Dict_compress.restarts >= 1)

(* ------------------------------------------------------------------ *)
(* Alpha-beta                                                          *)

(* Reference negamax without pruning. *)
let rec plain_negamax depth pos =
  if depth = 0 then W.Alphabeta.eval pos
  else
    List.fold_left
      (fun best child -> max best (-plain_negamax (depth - 1) child))
      (-100000) (W.Alphabeta.moves pos)

let alphabeta_equals_minimax () =
  for seed = 0 to 4 do
    let pos = W.Alphabeta.root ~seed in
    let v, _ = W.Alphabeta.search ~depth:3 pos in
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) (plain_negamax 3 pos) v
  done

let alphabeta_prunes () =
  let pos = W.Alphabeta.root ~seed:9 in
  let _, no_cache = W.Alphabeta.search ~depth:4 pos in
  (* Count nodes of the full tree. *)
  let rec count depth pos =
    if depth = 0 then 1
    else 1 + List.fold_left (fun acc c -> acc + count (depth - 1) c) 0 (W.Alphabeta.moves pos)
  in
  Alcotest.(check bool) "visits fewer nodes than full tree" true
    (no_cache.W.Alphabeta.nodes < count 4 pos)

let alphabeta_deterministic () =
  let pos = W.Alphabeta.root ~seed:1 in
  let v1, s1 = W.Alphabeta.search ~depth:4 pos in
  let v2, s2 = W.Alphabeta.search ~depth:4 pos in
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check int) "same nodes" s1.W.Alphabeta.nodes s2.W.Alphabeta.nodes

let alphabeta_cache_preserves_value () =
  let pos = W.Alphabeta.root ~seed:2 in
  let v_plain, _ = W.Alphabeta.search ~depth:4 pos in
  let cache = W.Alphabeta.create_cache () in
  let v_cached, _ = W.Alphabeta.search ~cache ~depth:4 pos in
  let v_warm, stats = W.Alphabeta.search ~cache ~depth:4 pos in
  Alcotest.(check int) "cold cache same value" v_plain v_cached;
  Alcotest.(check int) "warm cache same value" v_plain v_warm;
  Alcotest.(check bool) "warm cache hits" true (stats.W.Alphabeta.cache_hits > 0)

let alphabeta_variable_subtrees () =
  (* The variance that limits crafty: sibling subtree sizes differ. *)
  let pos = W.Alphabeta.root ~seed:3 in
  let sizes =
    List.map
      (fun m -> (snd (W.Alphabeta.search ~depth:3 m)).W.Alphabeta.nodes)
      (W.Alphabeta.moves pos)
  in
  let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "imbalance exists" true (mx > mn)

let alphabeta_best_root_move () =
  let pos = W.Alphabeta.root ~seed:4 in
  let m, v, _ = W.Alphabeta.best_root_move ~depth:3 pos in
  Alcotest.(check bool) "move is legal" true (List.mem m (W.Alphabeta.moves pos));
  let expected =
    List.fold_left
      (fun acc c -> max acc (-plain_negamax 2 c))
      (-100000) (W.Alphabeta.moves pos)
  in
  Alcotest.(check int) "value matches exhaustive" expected v

(* ------------------------------------------------------------------ *)
(* Chart parser                                                        *)

let parser_accepts_grammatical () =
  let g = W.Chart_parser.english_like in
  let r = W.Chart_parser.parse g [ "the"; "dog"; "sees"; "a"; "cat" ] in
  Alcotest.(check bool) "grammatical" true r.W.Chart_parser.grammatical

let parser_rejects_scrambled () =
  let g = W.Chart_parser.english_like in
  let r = W.Chart_parser.parse g [ "sees"; "the"; "the"; "dog" ] in
  Alcotest.(check bool) "rejected" false r.W.Chart_parser.grammatical

let parser_accepts_pp_attachment () =
  let g = W.Chart_parser.english_like in
  let r =
    W.Chart_parser.parse g
      [ "the"; "dog"; "sees"; "a"; "cat"; "with"; "a"; "telescope" ]
  in
  Alcotest.(check bool) "PP attaches" true r.W.Chart_parser.grammatical

let parser_generated_sentences_parse =
  qtest ~count:50 "generated sentences are grammatical" ~print:string_of_int
    QCheck2.Gen.(int_range 4 20)
    (fun len ->
      let rng = Simcore.Rng.create (len * 31) in
      let s = W.Chart_parser.sentence_of_length rng len in
      (W.Chart_parser.parse W.Chart_parser.english_like s).W.Chart_parser.grammatical)

let parser_work_grows_cubically () =
  let rng = Simcore.Rng.create 6 in
  let short = W.Chart_parser.sentence_of_length rng 5 in
  let long = W.Chart_parser.sentence_of_length rng 25 in
  let w1 = (W.Chart_parser.parse W.Chart_parser.english_like short).W.Chart_parser.work in
  let w2 = (W.Chart_parser.parse W.Chart_parser.english_like long).W.Chart_parser.work in
  Alcotest.(check bool) "long sentences dominate" true (w2 > 20 * w1)

let parser_empty_sentence () =
  let r = W.Chart_parser.parse W.Chart_parser.english_like [] in
  Alcotest.(check bool) "empty not grammatical" false r.W.Chart_parser.grammatical

(* ------------------------------------------------------------------ *)
(* Anneal                                                              *)

let anneal_cost_consistency =
  qtest ~count:30 "incremental cost stays consistent" ~print:string_of_int
    QCheck2.Gen.(int_range 0 200)
    (fun swaps ->
      let t = W.Anneal.create ~seed:42 ~blocks:30 ~grid:8 ~nets:20 in
      for _ = 1 to swaps do
        ignore (W.Anneal.try_swap t ~threshold:0.5)
      done;
      W.Anneal.cost_is_consistent t)

let anneal_zero_threshold_never_worsens () =
  let t = W.Anneal.create ~seed:7 ~blocks:30 ~grid:8 ~nets:20 in
  let start = W.Anneal.total_cost t in
  for _ = 1 to 300 do
    ignore (W.Anneal.try_swap t ~threshold:0.0)
  done;
  Alcotest.(check bool) "cost non-increasing" true (W.Anneal.total_cost t <= start)

let anneal_acceptance_tracks_threshold () =
  let accepted threshold =
    let t = W.Anneal.create ~seed:8 ~blocks:30 ~grid:8 ~nets:20 in
    let n = ref 0 in
    for _ = 1 to 400 do
      if (W.Anneal.try_swap t ~threshold).W.Anneal.accepted then incr n
    done;
    !n
  in
  Alcotest.(check bool) "hot accepts more" true (accepted 0.9 > accepted 0.05)

let anneal_rng_calls_variable () =
  let t = W.Anneal.create ~seed:9 ~blocks:30 ~grid:8 ~nets:20 in
  let calls = List.init 200 (fun _ -> (W.Anneal.try_swap t ~threshold:0.5).W.Anneal.rng_calls) in
  let mn = List.fold_left min max_int calls and mx = List.fold_left max 0 calls in
  Alcotest.(check bool) "variable call count (twolf's misspec source)" true (mx > mn)

(* ------------------------------------------------------------------ *)
(* Netflow                                                             *)

let netflow_feasible_and_optimal =
  qtest ~count:20 "solver yields feasible optimal flow" ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let g = W.Netflow.generate ~seed ~sources:3 ~sinks:3 ~transit:6 in
      let s = W.Netflow.solve g in
      W.Netflow.is_feasible g s && W.Netflow.is_optimal g s)

let netflow_pushes_flow () =
  let g = W.Netflow.generate ~seed:181 ~sources:4 ~sinks:4 ~transit:10 in
  let s = W.Netflow.solve g in
  Alcotest.(check bool) "positive flow" true (s.W.Netflow.total_flow > 0);
  Alcotest.(check bool) "has augmentations" true (s.W.Netflow.augmentations <> [])

let netflow_zero_capacity_edge_case () =
  let arcs = [ { W.Netflow.a_src = 0; a_dst = 1; a_cost = 1; a_cap = 0 } ] in
  let g = W.Netflow.make ~nodes:2 ~source:0 ~sink:1 ~arcs in
  let s = W.Netflow.solve g in
  Alcotest.(check int) "no flow" 0 s.W.Netflow.total_flow

let netflow_prefers_cheap_path () =
  let arcs =
    [
      { W.Netflow.a_src = 0; a_dst = 1; a_cost = 1; a_cap = 10 };
      { W.Netflow.a_src = 0; a_dst = 1; a_cost = 100; a_cap = 10 };
    ]
  in
  let g = W.Netflow.make ~nodes:2 ~source:0 ~sink:1 ~arcs in
  let s = W.Netflow.solve g in
  Alcotest.(check int) "total cost uses cheap arc first" (10 + 1000) s.W.Netflow.total_cost;
  Alcotest.(check int) "flow" 20 s.W.Netflow.total_flow

(* ------------------------------------------------------------------ *)
(* B-tree                                                              *)

let btree_model_based =
  qtest ~count:60 "btree agrees with Map" ~print:QCheck2.Print.(list (pair bool int))
    QCheck2.Gen.(list (pair bool (int_bound 200)))
    (fun ops ->
      let t = W.Btree.create ~degree:3 in
      let module IM = Map.Make (Int) in
      let model = ref IM.empty in
      List.iter
        (fun (is_insert, k) ->
          if is_insert then begin
            ignore (W.Btree.insert t ~key:k ~value:(k * 2));
            model := IM.add k (k * 2) !model
          end
          else begin
            ignore (W.Btree.delete t ~key:k);
            model := IM.remove k !model
          end)
        ops;
      let ok_size = W.Btree.size t = IM.cardinal !model in
      let ok_keys = W.Btree.keys t = List.map fst (IM.bindings !model) in
      let ok_inv = W.Btree.check_invariants t = Ok () in
      let ok_lookup =
        IM.for_all (fun k v -> fst (W.Btree.lookup t ~key:k) = Some v) !model
      in
      ok_size && ok_keys && ok_inv && ok_lookup)

let btree_restructure_rare_at_high_degree () =
  let t = W.Btree.create ~degree:32 in
  let rng = Simcore.Rng.create 10 in
  let restructures = ref 0 and ops = ref 0 in
  for _ = 1 to 2000 do
    let r = W.Btree.insert t ~key:(Simcore.Rng.int rng 100000) ~value:0 in
    incr ops;
    if r.W.Btree.restructured then incr restructures
  done;
  let rate = float_of_int !restructures /. float_of_int !ops in
  Alcotest.(check bool) "splits are rare (vortex premise)" true (rate < 0.1)

let btree_overwrite_keeps_size () =
  let t = W.Btree.create ~degree:4 in
  ignore (W.Btree.insert t ~key:5 ~value:1);
  ignore (W.Btree.insert t ~key:5 ~value:2);
  Alcotest.(check int) "size 1" 1 (W.Btree.size t);
  Alcotest.(check (option int)) "latest value" (Some 2) (fst (W.Btree.lookup t ~key:5))

let btree_delete_absent_is_noop () =
  let t = W.Btree.create ~degree:4 in
  ignore (W.Btree.insert t ~key:1 ~value:1);
  ignore (W.Btree.delete t ~key:99);
  Alcotest.(check int) "size unchanged" 1 (W.Btree.size t);
  Alcotest.(check bool) "invariants hold" true (W.Btree.check_invariants t = Ok ())

(* ------------------------------------------------------------------ *)
(* Stack VM                                                            *)

let stackvm_arithmetic () =
  let st = W.Stackvm.create_state ~globals:4 ~heap_limit:100 in
  let r =
    W.Stackvm.exec_stmt st
      [ W.Stackvm.Push 6; W.Stackvm.Push 7; W.Stackvm.Mul; W.Stackvm.Print ]
  in
  Alcotest.(check (list int)) "42" [ 42 ] r.W.Stackvm.printed;
  Alcotest.(check int) "stack empty" 0 r.W.Stackvm.stack_depth_end

let stackvm_globals_tracked () =
  let st = W.Stackvm.create_state ~globals:4 ~heap_limit:100 in
  let r1 =
    W.Stackvm.exec_stmt st [ W.Stackvm.Push 9; W.Stackvm.Store_global 2 ]
  in
  let r2 = W.Stackvm.exec_stmt st [ W.Stackvm.Load_global 2; W.Stackvm.Print ] in
  Alcotest.(check (list int)) "writes" [ 2 ] r1.W.Stackvm.globals_written;
  Alcotest.(check (list int)) "reads" [ 2 ] r2.W.Stackvm.globals_read;
  Alcotest.(check (list int)) "value flows" [ 9 ] r2.W.Stackvm.printed

let stackvm_underflow_rejected () =
  let st = W.Stackvm.create_state ~globals:1 ~heap_limit:10 in
  Alcotest.check_raises "underflow" (Invalid_argument "Stackvm.exec_stmt: stack underflow")
    (fun () -> ignore (W.Stackvm.exec_stmt st [ W.Stackvm.Pop ]))

let stackvm_gc_preserves_reachable () =
  let st = W.Stackvm.create_state ~globals:2 ~heap_limit:3 in
  (* Allocate an object, store 11 in its field, publish in global 0. *)
  ignore
    (W.Stackvm.exec_stmt st
       [
         W.Stackvm.Alloc 1; W.Stackvm.Dup; W.Stackvm.Push 11; W.Stackvm.Set_field 0;
         W.Stackvm.Store_global 0;
       ]);
  (* Churn allocations until a GC fires. *)
  let fired = ref false in
  for _ = 1 to 10 do
    let r = W.Stackvm.exec_stmt st [ W.Stackvm.Alloc 1; W.Stackvm.Pop ] in
    if r.W.Stackvm.gc <> None then fired := true
  done;
  Alcotest.(check bool) "gc fired" true !fired;
  (* The published object survived the moves with its field intact. *)
  let r =
    W.Stackvm.exec_stmt st
      [ W.Stackvm.Load_global 0; W.Stackvm.Get_field 0; W.Stackvm.Print ]
  in
  Alcotest.(check (list int)) "field preserved across GC" [ 11 ] r.W.Stackvm.printed

let stackvm_gc_collects_garbage () =
  let st = W.Stackvm.create_state ~globals:1 ~heap_limit:4 in
  let collected = ref 0 in
  for _ = 1 to 20 do
    let r = W.Stackvm.exec_stmt st [ W.Stackvm.Alloc 1; W.Stackvm.Pop ] in
    match r.W.Stackvm.gc with
    | Some g -> collected := !collected + g.W.Stackvm.collected
    | None -> ()
  done;
  Alcotest.(check bool) "unreachable objects reclaimed" true (!collected > 0);
  Alcotest.(check bool) "heap bounded" true (W.Stackvm.live_objects st <= 5)

let stackvm_gen_programs_run =
  qtest ~count:30 "generated programs execute cleanly" ~print:string_of_int
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let prog = W.Stackvm.gen_program ~seed ~stmts:40 ~globals:6 ~chain:0.5 ~alloc_rate:0.4 in
      let st = W.Stackvm.create_state ~globals:6 ~heap_limit:20 in
      List.iter (fun s -> ignore (W.Stackvm.exec_stmt st s)) prog;
      List.for_all (fun s -> s <> []) prog)

(* ------------------------------------------------------------------ *)
(* Minicc                                                              *)

let minicc_front_end_parses_generated () =
  let src = W.Minicc.gen_source ~seed:1 ~functions:5 in
  match W.Minicc.front_end src with
  | Ok (funcs, tokens) ->
    Alcotest.(check int) "five functions" 5 (List.length funcs);
    Alcotest.(check bool) "tokens counted" true (tokens > 0)
  | Error e -> Alcotest.fail e

let minicc_optimize_preserves_semantics =
  qtest ~count:50 "optimization preserves evaluation" ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let src = W.Minicc.gen_source ~seed ~functions:2 in
      match W.Minicc.front_end src with
      | Error _ -> false
      | Ok (funcs, _) ->
        List.for_all
          (fun fu ->
            let opt, _ = W.Minicc.optimize fu in
            W.Minicc.eval_function fu = W.Minicc.eval_function opt)
          funcs)

let minicc_optimize_shrinks () =
  let src = W.Minicc.gen_source ~seed:3 ~functions:1 in
  match W.Minicc.front_end src with
  | Error e -> Alcotest.fail e
  | Ok ([ fu ], _) ->
    let opt, report = W.Minicc.optimize fu in
    Alcotest.(check bool) "dce removed something or kept size" true
      (List.length opt.W.Minicc.quads <= List.length fu.W.Minicc.quads);
    Alcotest.(check int) "four passes" 4 (List.length report.W.Minicc.pass_work)
  | Ok _ -> Alcotest.fail "expected one function"

let minicc_compile_deterministic () =
  let src = W.Minicc.gen_source ~seed:4 ~functions:3 in
  let a = W.Minicc.compile src and b = W.Minicc.compile src in
  Alcotest.(check bool) "same output" true (a = b && Result.is_ok a)

let minicc_per_function_labels_order_independent () =
  (* The paper's label_num change: with per-function labels, compiling a
     function is independent of its position in the unit. *)
  let f0 = W.Minicc.gen_source ~seed:10 ~functions:1 in
  let f1 = W.Minicc.gen_source ~seed:11 ~functions:1 in
  let compile_only src =
    match W.Minicc.compile ~per_function_labels:true src with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let together = compile_only (f0 ^ f1) in
  let separate = compile_only f0 ^ compile_only f1 in
  Alcotest.(check string) "concatenation equals separate compilation" separate together

let minicc_global_labels_order_dependent () =
  let f0 = W.Minicc.gen_source ~seed:10 ~functions:1 in
  let f1 = W.Minicc.gen_source ~seed:11 ~functions:1 in
  let compile_global src =
    match W.Minicc.compile ~per_function_labels:false src with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (* With the shared counter the second function's labels depend on the
     first: outputs differ between orders (syntactically different,
     semantically equivalent — the paper's point). *)
  Alcotest.(check bool) "order changes labels" true
    (compile_global (f0 ^ f1) <> compile_global (f1 ^ f0))

let minicc_lex_error_reported () =
  match W.Minicc.front_end "func f() { x = 1 @ 2; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected lex error"

let () =
  Alcotest.run "workloads"
    [
      ( "textgen",
        [
          Alcotest.test_case "size" `Quick textgen_size;
          Alcotest.test_case "deterministic" `Quick textgen_deterministic;
          Alcotest.test_case "redundancy" `Quick textgen_redundancy_compresses_better;
        ] );
      ( "lz77",
        [
          Alcotest.test_case "roundtrip text" `Quick lz77_roundtrip_text;
          lz77_roundtrip_prop;
          Alcotest.test_case "compresses" `Quick lz77_compresses_repetition;
          lz77_window_respected;
          Alcotest.test_case "empty" `Quick lz77_empty;
        ] );
      ( "bwt",
        [
          Alcotest.test_case "roundtrip known" `Quick bwt_roundtrip_known;
          bwt_roundtrip_prop;
          mtf_roundtrip_prop;
          rle_roundtrip_prop;
          Alcotest.test_case "rle runs" `Quick rle_compresses_runs;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "prefix free" `Quick huffman_prefix_free;
          Alcotest.test_case "frequent shorter" `Quick huffman_frequent_shorter;
          huffman_beats_fixed;
          Alcotest.test_case "empty" `Quick huffman_empty;
          huffman_encode_decode_roundtrip;
          Alcotest.test_case "canonical prefix-free" `Quick huffman_canonical_prefix_free;
          Alcotest.test_case "bzip2 chain roundtrip" `Quick bzip2_chain_roundtrip;
        ] );
      ( "dict-compress",
        [
          Alcotest.test_case "fixed intervals" `Quick dict_fixed_interval_restarts;
          Alcotest.test_case "heuristic restarts" `Quick dict_heuristic_restarts_eventually;
        ] );
      ( "alphabeta",
        [
          Alcotest.test_case "equals minimax" `Quick alphabeta_equals_minimax;
          Alcotest.test_case "prunes" `Quick alphabeta_prunes;
          Alcotest.test_case "deterministic" `Quick alphabeta_deterministic;
          Alcotest.test_case "cache preserves value" `Quick alphabeta_cache_preserves_value;
          Alcotest.test_case "variable subtrees" `Quick alphabeta_variable_subtrees;
          Alcotest.test_case "best root move" `Quick alphabeta_best_root_move;
        ] );
      ( "chart-parser",
        [
          Alcotest.test_case "accepts" `Quick parser_accepts_grammatical;
          Alcotest.test_case "rejects" `Quick parser_rejects_scrambled;
          Alcotest.test_case "pp attachment" `Quick parser_accepts_pp_attachment;
          parser_generated_sentences_parse;
          Alcotest.test_case "cubic work" `Quick parser_work_grows_cubically;
          Alcotest.test_case "empty" `Quick parser_empty_sentence;
        ] );
      ( "anneal",
        [
          anneal_cost_consistency;
          Alcotest.test_case "greedy never worsens" `Quick anneal_zero_threshold_never_worsens;
          Alcotest.test_case "acceptance tracks threshold" `Quick anneal_acceptance_tracks_threshold;
          Alcotest.test_case "variable rng calls" `Quick anneal_rng_calls_variable;
        ] );
      ( "netflow",
        [
          netflow_feasible_and_optimal;
          Alcotest.test_case "pushes flow" `Quick netflow_pushes_flow;
          Alcotest.test_case "zero capacity" `Quick netflow_zero_capacity_edge_case;
          Alcotest.test_case "prefers cheap" `Quick netflow_prefers_cheap_path;
        ] );
      ( "btree",
        [
          btree_model_based;
          Alcotest.test_case "rare restructures" `Quick btree_restructure_rare_at_high_degree;
          Alcotest.test_case "overwrite" `Quick btree_overwrite_keeps_size;
          Alcotest.test_case "delete absent" `Quick btree_delete_absent_is_noop;
        ] );
      ( "stackvm",
        [
          Alcotest.test_case "arithmetic" `Quick stackvm_arithmetic;
          Alcotest.test_case "globals" `Quick stackvm_globals_tracked;
          Alcotest.test_case "underflow" `Quick stackvm_underflow_rejected;
          Alcotest.test_case "gc preserves" `Quick stackvm_gc_preserves_reachable;
          Alcotest.test_case "gc collects" `Quick stackvm_gc_collects_garbage;
          stackvm_gen_programs_run;
        ] );
      ( "minicc",
        [
          Alcotest.test_case "front end" `Quick minicc_front_end_parses_generated;
          minicc_optimize_preserves_semantics;
          Alcotest.test_case "optimize shrinks" `Quick minicc_optimize_shrinks;
          Alcotest.test_case "deterministic" `Quick minicc_compile_deterministic;
          Alcotest.test_case "per-function labels" `Quick minicc_per_function_labels_order_independent;
          Alcotest.test_case "global labels" `Quick minicc_global_labels_order_dependent;
          Alcotest.test_case "lex error" `Quick minicc_lex_error_reported;
        ] );
    ]
