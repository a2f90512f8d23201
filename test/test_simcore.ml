(* Unit and property tests for the simcore substrate. *)

let qtest ?(count = 200) ~print name gen prop =
  Alcotest.test_case name `Quick (fun () -> Check.Runner.run_prop_exn ~count ~print ~name gen prop)

let ops_print = QCheck2.Print.(list (pair int int))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let rng_deterministic () =
  let a = Simcore.Rng.create 42 and b = Simcore.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Simcore.Rng.bits64 a) (Simcore.Rng.bits64 b)
  done

let rng_copy_independent () =
  let a = Simcore.Rng.create 7 in
  ignore (Simcore.Rng.bits64 a);
  let b = Simcore.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Simcore.Rng.bits64 a)
    (Simcore.Rng.bits64 b)

let rng_split_diverges () =
  let a = Simcore.Rng.create 1 in
  let b = Simcore.Rng.split a in
  let xa = Simcore.Rng.bits64 a and xb = Simcore.Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let rng_int_bounds () =
  let r = Simcore.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Simcore.Rng.int r 10 in
    Alcotest.(check bool) "0 <= v < 10" true (v >= 0 && v < 10)
  done

let rng_int_in_bounds () =
  let r = Simcore.Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Simcore.Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let rng_float_unit_interval () =
  let r = Simcore.Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Simcore.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let rng_float_mean () =
  let r = Simcore.Rng.create 6 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Simcore.Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let rng_chance_extremes () =
  let r = Simcore.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Simcore.Rng.chance r 1.0);
    Alcotest.(check bool) "p=0 always false" false (Simcore.Rng.chance r 0.0)
  done

let rng_shuffle_permutes () =
  let r = Simcore.Rng.create 8 in
  let a = Array.init 50 Fun.id in
  Simcore.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let rng_geometric_nonnegative () =
  let r = Simcore.Rng.create 9 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "geometric >= 0" true (Simcore.Rng.geometric r 0.3 >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let heap_basic () =
  let h = Simcore.Heap.create () in
  Alcotest.(check bool) "empty" true (Simcore.Heap.is_empty h);
  Simcore.Heap.add h ~prio:5 "five";
  Simcore.Heap.add h ~prio:1 "one";
  Simcore.Heap.add h ~prio:3 "three";
  Alcotest.(check int) "length" 3 (Simcore.Heap.length h);
  Alcotest.(check (option (pair int string))) "peek" (Some (1, "one"))
    (Simcore.Heap.peek_min h);
  Alcotest.(check (option (pair int string))) "pop 1" (Some (1, "one"))
    (Simcore.Heap.pop_min h);
  Alcotest.(check (option (pair int string))) "pop 3" (Some (3, "three"))
    (Simcore.Heap.pop_min h);
  Alcotest.(check (option (pair int string))) "pop 5" (Some (5, "five"))
    (Simcore.Heap.pop_min h);
  Alcotest.(check (option (pair int string))) "pop empty" None (Simcore.Heap.pop_min h)

let heap_fifo_ties () =
  let h = Simcore.Heap.create () in
  Simcore.Heap.add h ~prio:2 "a";
  Simcore.Heap.add h ~prio:2 "b";
  Simcore.Heap.add h ~prio:2 "c";
  let order =
    List.init 3 (fun _ ->
        match Simcore.Heap.pop_min h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order among ties" [ "a"; "b"; "c" ] order

let heap_sorts =
  qtest "heap pops in sorted order" ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list (int_bound 1000)) (fun xs ->
      let h = Simcore.Heap.create () in
      List.iter (fun x -> Simcore.Heap.add h ~prio:x x) xs;
      let rec drain acc =
        match Simcore.Heap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare xs)

let heap_clear () =
  let h = Simcore.Heap.create () in
  for i = 1 to 10 do
    Simcore.Heap.add h ~prio:i i
  done;
  Simcore.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Simcore.Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats_mean () = Alcotest.(check (float 1e-9)) "mean" 2.0 (Simcore.Stats.mean [ 1.0; 2.0; 3.0 ])

let stats_mean_empty () = Alcotest.(check (float 1e-9)) "empty" 0.0 (Simcore.Stats.mean [])

let stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Simcore.Stats.geomean [ 1.0; 2.0; 4.0 ])

let stats_variance () =
  Alcotest.(check (float 1e-9)) "variance" 2.0 (Simcore.Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let stats_minmax () =
  Alcotest.(check (float 1e-9)) "min" 1.0 (Simcore.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Simcore.Stats.maximum [ 3.0; 1.0; 2.0 ])

let stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Simcore.Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Simcore.Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p1" 1.0 (Simcore.Stats.percentile xs 1.0)

let stats_histogram () =
  let h = Simcore.Stats.histogram ~bucket_width:1.0 [ 0.1; 0.5; 1.2; 2.9 ] in
  Alcotest.(check int) "total" 4 (Simcore.Stats.total h);
  Alcotest.(check (list (pair (float 1e-9) int))) "buckets"
    [ (0.0, 2); (1.0, 1); (2.0, 1) ]
    (Simcore.Stats.buckets h)

let stats_geomean_property =
  qtest "geomean <= mean (AM-GM)" ~print:QCheck2.Print.(list float)
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.1 100.0))
    (fun xs -> Simcore.Stats.geomean xs <= Simcore.Stats.mean xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let ring_fifo_and_growth () =
  let r = Simcore.Ring.create ~capacity:2 () in
  for i = 1 to 100 do
    Simcore.Ring.push_back r i
  done;
  Alcotest.(check int) "length" 100 (Simcore.Ring.length r);
  Alcotest.(check int) "peek" 1 (Simcore.Ring.peek_front_exn r);
  for i = 1 to 50 do
    Alcotest.(check int) (Printf.sprintf "pop %d" i) i (Simcore.Ring.pop_front_exn r)
  done;
  (* Push after pops exercises wrap-around of the circular buffer. *)
  for i = 101 to 140 do
    Simcore.Ring.push_back r i
  done;
  Alcotest.(check (list int)) "fifo across wrap"
    (List.init 90 (fun i -> i + 51))
    (Simcore.Ring.to_list r)

let ring_push_front () =
  let r = Simcore.Ring.create () in
  Simcore.Ring.push_back r 2;
  Simcore.Ring.push_back r 3;
  Simcore.Ring.push_front r 1;
  Alcotest.(check (list int)) "head insert" [ 1; 2; 3 ] (Simcore.Ring.to_list r);
  ignore (Simcore.Ring.pop_front_exn r);
  Simcore.Ring.push_front r 9;
  Alcotest.(check (list int)) "squash re-queue shape" [ 9; 2; 3 ] (Simcore.Ring.to_list r)

let ring_empty_behavior () =
  let r = Simcore.Ring.create () in
  Alcotest.(check bool) "fresh empty" true (Simcore.Ring.is_empty r);
  Alcotest.(check (option int)) "pop option" None (Simcore.Ring.pop_front r);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Ring.pop_front_exn: empty")
    (fun () -> ignore (Simcore.Ring.pop_front_exn r));
  Simcore.Ring.push_back r 1;
  Simcore.Ring.clear r;
  Alcotest.(check bool) "cleared" true (Simcore.Ring.is_empty r)

let ring_model_property =
  (* The deque model is a list, head first. *)
  qtest ~count:300 "ring matches deque model" ~print:ops_print
    QCheck2.Gen.(list (pair (int_range 0 2) small_int))
    (fun ops ->
      let r = Simcore.Ring.create ~capacity:2 () in
      let model =
        List.fold_left
          (fun l (op, x) ->
            match op with
            | 0 ->
              Simcore.Ring.push_back r x;
              l @ [ x ]
            | 1 ->
              Simcore.Ring.push_front r x;
              x :: l
            | _ -> (
              let popped = Simcore.Ring.pop_front r in
              match l with
              | [] ->
                assert (popped = None);
                []
              | y :: rest ->
                assert (popped = Some y);
                rest))
          [] ops
      in
      Simcore.Ring.to_list r = model && Simcore.Ring.length r = List.length model)

(* ------------------------------------------------------------------ *)
(* Iheap (int event heap)                                              *)

let iheap_sorted_and_fifo () =
  let h = Simcore.Iheap.create () in
  Simcore.Iheap.add h ~prio:5 50 0;
  Simcore.Iheap.add h ~prio:1 10 7;
  Simcore.Iheap.add h ~prio:5 51 1;
  Simcore.Iheap.add h ~prio:3 30 2;
  Alcotest.(check int) "min_prio peeks" 1 (Simcore.Iheap.min_prio h);
  Alcotest.(check int) "peeking removes nothing" 4 (Simcore.Iheap.length h);
  let popped = ref [] in
  while Simcore.Iheap.pop h do
    popped :=
      (Simcore.Iheap.popped_prio h, Simcore.Iheap.popped_a h, Simcore.Iheap.popped_b h)
      :: !popped
  done;
  Alcotest.(check bool) "sorted, equal prios FIFO" true
    (List.rev !popped = [ (1, 10, 7); (3, 30, 2); (5, 50, 0); (5, 51, 1) ]);
  Alcotest.(check bool) "drained" true (Simcore.Iheap.is_empty h)

let iheap_clear_reuse () =
  let h = Simcore.Iheap.create () in
  Simcore.Iheap.add h ~prio:2 1 1;
  Simcore.Iheap.clear h;
  Alcotest.(check bool) "cleared" true (Simcore.Iheap.is_empty h);
  Simcore.Iheap.add h ~prio:9 2 2;
  Alcotest.(check bool) "usable after clear" true (Simcore.Iheap.pop h);
  Alcotest.(check int) "payload survives reuse" 2 (Simcore.Iheap.popped_a h)

(* Against the boxed Heap, which is its reference semantics: same
   priorities and payloads must pop in exactly the same order, including
   FIFO tie-breaks. *)
let iheap_matches_heap_property =
  qtest ~count:300 "iheap matches Heap order" ~print:ops_print
    QCheck2.Gen.(list (pair (int_bound 50) (int_bound 1000)))
    (fun entries ->
      let ih = Simcore.Iheap.create () in
      let bh = Simcore.Heap.create () in
      List.iter
        (fun (prio, v) ->
          Simcore.Iheap.add ih ~prio v 0;
          Simcore.Heap.add bh ~prio v)
        entries;
      let ok = ref true in
      List.iter
        (fun _ ->
          match Simcore.Heap.pop_min bh with
          | None -> ok := false
          | Some (p, v) ->
            if
              not
                (Simcore.Iheap.pop ih
                && Simcore.Iheap.popped_prio ih = p
                && Simcore.Iheap.popped_a ih = v)
            then ok := false)
        entries;
      !ok && Simcore.Iheap.is_empty ih)

let () =
  Alcotest.run "simcore"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "copy" `Quick rng_copy_independent;
          Alcotest.test_case "split" `Quick rng_split_diverges;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick rng_int_in_bounds;
          Alcotest.test_case "float interval" `Quick rng_float_unit_interval;
          Alcotest.test_case "float mean" `Quick rng_float_mean;
          Alcotest.test_case "chance extremes" `Quick rng_chance_extremes;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
          Alcotest.test_case "geometric" `Quick rng_geometric_nonnegative;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick heap_basic;
          Alcotest.test_case "fifo ties" `Quick heap_fifo_ties;
          heap_sorts;
          Alcotest.test_case "clear" `Quick heap_clear;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo and growth" `Quick ring_fifo_and_growth;
          Alcotest.test_case "push front" `Quick ring_push_front;
          Alcotest.test_case "empty behavior" `Quick ring_empty_behavior;
          ring_model_property;
        ] );
      ( "iheap",
        [
          Alcotest.test_case "sorted and fifo" `Quick iheap_sorted_and_fifo;
          Alcotest.test_case "clear and reuse" `Quick iheap_clear_reuse;
          iheap_matches_heap_property;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick stats_mean;
          Alcotest.test_case "mean empty" `Quick stats_mean_empty;
          Alcotest.test_case "geomean" `Quick stats_geomean;
          Alcotest.test_case "variance" `Quick stats_variance;
          Alcotest.test_case "minmax" `Quick stats_minmax;
          Alcotest.test_case "percentile" `Quick stats_percentile;
          Alcotest.test_case "histogram" `Quick stats_histogram;
          stats_geomean_property;
        ] );
    ]
