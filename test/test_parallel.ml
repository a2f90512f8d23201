(* Tests for the Domain pool: result ordering, exception propagation,
   reuse across batches, nesting, and — the property the whole harness
   rests on — bit-identical experiment results at any domain count. *)

(* Every schedule simulated below is re-checked by the oracle. *)
let () = Sim.Pipeline.validate_default := true

let map_ordering () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Parallel.Pool.map pool (fun x -> x * x) input in
      Alcotest.(check (array int)) "ordered by index" (Array.init 100 (fun i -> i * i)) out)

let map_matches_sequential () =
  (* domains = 1 takes the sequential fallback; both paths must agree. *)
  let input = Array.init 57 (fun i -> (3 * i) + 1) in
  let f x = (x * x) - x in
  let seq = Parallel.Pool.with_pool ~domains:1 (fun p -> Parallel.Pool.map p f input) in
  let par = Parallel.Pool.with_pool ~domains:4 (fun p -> Parallel.Pool.map p f input) in
  Alcotest.(check (array int)) "identical" seq par

let map_list_order () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      let out = Parallel.Pool.map_list pool String.uppercase_ascii [ "a"; "b"; "c"; "d" ] in
      Alcotest.(check (list string)) "list order" [ "A"; "B"; "C"; "D" ] out)

let exception_propagates () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "worker exception reaches owner" (Failure "boom") (fun () ->
          ignore
            (Parallel.Pool.map pool
               (fun x -> if x = 17 then failwith "boom" else x)
               (Array.init 64 (fun i -> i)))))

let usable_after_exception () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      (try ignore (Parallel.Pool.map pool (fun _ -> failwith "x") [| 1; 2; 3 |])
       with Failure _ -> ());
      let out = Parallel.Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool recovered" [| 2; 3; 4 |] out)

let reuse_many_batches () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      for k = 1 to 8 do
        let out = Parallel.Pool.map pool (fun x -> x * k) (Array.init 32 (fun i -> i)) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" k)
          (Array.init 32 (fun i -> i * k))
          out
      done)

let parallel_for_covers_all () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let hits = Array.make 1000 0 in
      (* Each index is claimed by exactly one domain, so the unsynchronized
         per-slot increment is race-free. *)
      Parallel.Pool.parallel_for pool ~n:1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each index exactly once" (Array.make 1000 1) hits)

let nested_map_degrades () =
  (* A map issued from inside an item opens a batch of its own, which
     every idle domain can claim: correct results, no deadlock. *)
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let out =
        Parallel.Pool.map pool
          (fun x ->
            Array.fold_left ( + ) 0 (Parallel.Pool.map pool (fun y -> x * y) [| 1; 2; 3 |]))
          (Array.init 16 (fun i -> i))
      in
      Alcotest.(check (array int)) "nested" (Array.init 16 (fun i -> 6 * i)) out)

(* Long-item stress: one giant item up front (the submitter chews on
   it) plus many tiny ones, which the other domains claim while the
   giant one occupies its domain.  Every element must appear exactly
   once, in index order, at every domain count. *)
let long_item_stress () =
  let n = 101 in
  let giant_spin x =
    (* Data-dependent spin so the work can't be constant-folded. *)
    let acc = ref x in
    for i = 1 to 2_000_000 do
      acc := (!acc + i) land 0xFFFFFF
    done;
    !acc
  in
  let f i = if i = 0 then (i, giant_spin i) else (i, i * i) in
  let expected = Array.init n f in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let out = Parallel.Pool.map pool f (Array.init n (fun i -> i)) in
          Alcotest.(check bool)
            (Printf.sprintf "no dup/lost/reorder at %d domains" domains)
            true (out = expected);
          let hits = Array.make n 0 in
          Parallel.Pool.parallel_for pool ~n (fun i ->
              ignore (if i = 0 then giant_spin i else i);
              hits.(i) <- hits.(i) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "parallel_for covers all at %d domains" domains)
            (Array.make n 1) hits))
    (Test_util.domain_counts ())

(* Bump [started], then wait until [n] items have: a batch whose items
   block on one another.  Past a 10 s deadline the item fails, so a pool
   that does not run the [n] items at the same time fails the test
   instead of hanging it. *)
let start_and_wait started n =
  Atomic.incr started;
  let t0 = Unix.gettimeofday () in
  while Atomic.get started < n do
    if Unix.gettimeofday () -. t0 > 10. then
      failwith (Printf.sprintf "%d of %d items started within 10 s" (Atomic.get started) n);
    Domain.cpu_relax ()
  done

(* What Runtime.Exec relies on: on an idle pool, a batch of [size] items
   runs every item at once, each on its own domain. *)
let full_batch_runs_at_once () =
  List.iter
    (fun domains ->
      if domains >= 2 then
        Parallel.Pool.with_pool ~domains (fun pool ->
            let started = Atomic.make 0 in
            Parallel.Pool.parallel_for pool ~n:domains (fun _ -> start_and_wait started domains);
            Alcotest.(check int)
              (Printf.sprintf "all items started at %d domains" domains)
              domains (Atomic.get started)))
    (Test_util.domain_counts ())

(* A nested batch is open to the domain that finishes the outer batch's
   other item: its two items wait for each other, so they finish only if
   that domain claims one of them. *)
let nested_batch_open_to_idle_domain () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Parallel.Pool.map pool
          (fun x ->
            if x > 0 then x
            else begin
              let started = Atomic.make 0 in
              Parallel.Pool.parallel_for pool ~n:2 (fun _ -> start_and_wait started 2);
              Atomic.get started
            end)
          [| 0; 1 |]
      in
      Alcotest.(check (array int)) "both nested items started" [| 2; 1 |] out)

let shutdown_idempotent_then_sequential () =
  let pool = Parallel.Pool.create ~domains:4 in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  let out = Parallel.Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "degrades to sequential" [| 2; 3; 4 |] out

let default_domains_positive () =
  Alcotest.(check bool) "at least 1" true (Parallel.Pool.default_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism of the experiment harness across domain counts          *)

let sweep_all ~domains ~study_level =
  Parallel.Pool.with_pool ~domains (fun pool ->
      if study_level then
        (* Parallelism across the 11 studies, as bench/main.ml uses it. *)
        Parallel.Pool.map_list pool
          (fun s ->
            (Core.Experiment.run ~scale:Benchmarks.Study.Small s).Core.Experiment.series)
          Benchmarks.Registry.all
      else
        (* Parallelism across the sweep's thread counts, as repro uses it. *)
        List.map
          (fun s ->
            (Core.Experiment.run ~pool ~scale:Benchmarks.Study.Small s)
              .Core.Experiment.series)
          Benchmarks.Registry.all)

let registry_sweep_deterministic () =
  let sequential = sweep_all ~domains:1 ~study_level:true in
  let by_study = sweep_all ~domains:4 ~study_level:true in
  let by_thread = sweep_all ~domains:4 ~study_level:false in
  Alcotest.(check bool)
    "domains=4 (study-level) structurally equals domains=1" true
    (sequential = by_study);
  Alcotest.(check bool)
    "domains=4 (sweep-level) structurally equals domains=1" true
    (sequential = by_thread)

(* The 1-vs-4-domain check over randomized plans: sweeps of generated
   programs (not just the fixed registry) must not depend on pool size. *)
let randomized_plans_pool_invariant () =
  let gen = Check.Gen_ir.input () in
  let inputs =
    List.init 8 (fun i -> QCheck2.Gen.generate1 ~rand:(Random.State.make [| 1000 + i |]) gen)
  in
  let sweep ~domains =
    Parallel.Pool.with_pool ~domains (fun pool ->
        List.map
          (fun input -> Sim.Speedup.sweep ~pool ~label:"randomized" input)
          inputs)
  in
  Alcotest.(check bool)
    "randomized-plan sweeps identical at 1 and 4 domains" true
    (sweep ~domains:1 = sweep ~domains:4)

(* ------------------------------------------------------------------ *)
(* Property: Pool.map == List.map, on random workloads                  *)

(* No explicit count: `dune build @prop` stress-tests the scheduler at
   1000 random workloads through CHECK_COUNT. *)
let pool_map_matches_list_map () =
  let gen =
    QCheck2.Gen.(
      triple (int_range 1 5) (list_size (int_bound 80) (int_bound 10_000)) (int_bound 500))
  in
  Check.Runner.run_prop_exn ~print:QCheck2.Print.(triple int (list int) int)
    ~name:"Pool.map = List.map on random workloads" gen
    (fun (domains, items, spin) ->
      (* Uneven per-item work spreads items unevenly over the domains;
         the function is pure so placement-by-index is the only thing
         that can go wrong. *)
      let f x =
        let acc = ref x in
        for i = 1 to spin * (x land 7) do
          acc := (!acc + i) land 0xFFFF
        done;
        (x, !acc)
      in
      let expected = List.map f items in
      let got =
        Parallel.Pool.with_pool ~domains (fun pool -> Parallel.Pool.map_list pool f items)
      in
      got = expected)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick map_ordering;
          Alcotest.test_case "map matches sequential" `Quick map_matches_sequential;
          Alcotest.test_case "map_list order" `Quick map_list_order;
          Alcotest.test_case "exception propagates" `Quick exception_propagates;
          Alcotest.test_case "usable after exception" `Quick usable_after_exception;
          Alcotest.test_case "reuse across batches" `Quick reuse_many_batches;
          Alcotest.test_case "parallel_for covers all" `Quick parallel_for_covers_all;
          Alcotest.test_case "nested map degrades" `Quick nested_map_degrades;
          Alcotest.test_case "shutdown idempotent" `Quick shutdown_idempotent_then_sequential;
          Alcotest.test_case "default domains" `Quick default_domains_positive;
          Alcotest.test_case "long-item stress" `Quick long_item_stress;
          Alcotest.test_case "full batch runs at once" `Quick full_batch_runs_at_once;
          Alcotest.test_case "nested batch open to idle domain" `Quick
            nested_batch_open_to_idle_domain;
          Alcotest.test_case "Pool.map = List.map on random workloads" `Quick
            pool_map_matches_list_map;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "registry sweep at 1 and 4 domains" `Quick
            registry_sweep_deterministic;
          Alcotest.test_case "randomized plans at 1 and 4 domains" `Quick
            randomized_plans_pool_invariant;
        ] );
    ]
