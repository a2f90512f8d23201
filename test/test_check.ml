(* Self-tests for Check.Runner, the QCheck2 wrapper every property runs
   through: a failure report carries the shrunk counterexample and the
   seed that replays it, and the seed alone replays it.  Plus the
   well-formedness of the Check.Gen_ir domain generators. *)

module G = QCheck2.Gen
module R = Check.Runner

let expect_pass ~name gen prop = R.run_prop_exn ~count:200 ~name gen prop

(* The report of a property that must fail. *)
let failure_report ?print ~name gen prop =
  match R.run_prop_exn ~count:500 ?print ~name gen prop with
  | () -> Alcotest.failf "%s: expected a counterexample" name
  | exception Failure report -> report

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "%S not found in %S" sub s
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

let counterexample report =
  let start = index_of report "shrink steps): " + String.length "shrink steps): " in
  String.sub report start (index_of report "\n  replay with" - start)

(* The report ends with the seed. *)
let replay_seed report =
  let at = index_of report "CHECK_SEED=" + String.length "CHECK_SEED=" in
  int_of_string (String.sub report at (String.length report - at))

(* Run [f] with the variable set to [value]; the empty string reads as
   unset. *)
let with_env var value f =
  let old = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect f ~finally:(fun () -> Unix.putenv var old)

(* ------------------------------------------------------------------ *)
(* Shrinking: the report shows the shrunk counterexample               *)

(* The smallest failing value of [n >= 50] is 50, and the halving
   candidates always contain n-1, so greedy descent can only stop
   there. *)
let shrink_int_to_boundary () =
  let report =
    failure_report ~print:string_of_int ~name:"int boundary" (G.int_range 0 1000) (fun n ->
        n < 50)
  in
  Alcotest.(check string) "minimal is the boundary" "50" (counterexample report)

let shrink_list_to_singleton () =
  (* The minimal list containing a 7 is [7]: dropping elements reaches a
     singleton, and 7's own shrink candidates all pass. *)
  let report =
    failure_report ~print:QCheck2.Print.(list int) ~name:"list minimal"
      (G.list (G.int_bound 10))
      (fun l -> not (List.mem 7 l))
  in
  Alcotest.(check string) "minimal list" "[7]" (counterexample report)

let shrink_pair_left_first () =
  (* Both components can fail the property; shrinking must minimise the
     left one first and then the right, ending at the joint minimum. *)
  let report =
    failure_report
      ~print:(fun (a, b) -> Printf.sprintf "%d,%d" a b)
      ~name:"pair minimal"
      (G.pair (G.int_bound 100) (G.int_bound 100))
      (fun (a, b) -> a + b < 10)
  in
  let a, b = Scanf.sscanf (counterexample report) "%d,%d" (fun a b -> (a, b)) in
  Alcotest.(check int) "sum is the boundary" 10 (a + b)

(* ------------------------------------------------------------------ *)
(* Determinism and replay                                              *)

(* The loops one property run draws. *)
let drawn_loops () =
  let seen = ref [] in
  R.run_prop_exn ~count:20 ~name:"drawn loops" (Check.Gen_ir.loop_desc ()) (fun d ->
      seen := d :: !seen;
      true);
  !seen

let generation_deterministic () =
  let unset = with_env "CHECK_SEED" "" drawn_loops in
  Alcotest.(check bool) "no CHECK_SEED: same loops every run" true
    (unset = with_env "CHECK_SEED" "" drawn_loops);
  let seeded = with_env "CHECK_SEED" "42" drawn_loops in
  Alcotest.(check bool) "same CHECK_SEED, same loops" true
    (seeded = with_env "CHECK_SEED" "42" drawn_loops);
  Alcotest.(check bool) "CHECK_SEED changes the loops" true (seeded <> unset);
  Alcotest.(check bool) "different CHECK_SEED, different loops" true
    (seeded <> with_env "CHECK_SEED" "43" drawn_loops)

let replay_reproduces_failure () =
  let run () =
    failure_report ~print:QCheck2.Print.(list int) ~name:"replay"
      (G.list_size (G.int_range 0 20) (G.int_bound 100))
      (fun l -> List.fold_left ( + ) 0 l < 150)
  in
  let first = run () in
  (* The printed seed alone, with no case index, must reproduce the
     identical report: same counterexample, same shrink steps. *)
  let replayed = with_env "CHECK_SEED" (string_of_int (replay_seed first)) run in
  Alcotest.(check string) "same report" first replayed

let failure_prints_seed () =
  let fail ~name = failure_report ~name (G.int_bound 10) (fun _ -> false) in
  Alcotest.(check int) "no CHECK_SEED: the name's seed" (R.seed_of_name "seed printing")
    (replay_seed (with_env "CHECK_SEED" "" (fun () -> fail ~name:"seed printing")));
  Alcotest.(check int) "CHECK_SEED is echoed" 1234
    (replay_seed (with_env "CHECK_SEED" "1234" (fun () -> fail ~name:"seed printing")))

let distinct_names_distinct_seeds () =
  Alcotest.(check bool) "FNV seeds differ" true
    (R.seed_of_name "prop_a" <> R.seed_of_name "prop_b")

(* ------------------------------------------------------------------ *)
(* Domain generators                                                   *)

let gen_loops_are_well_formed () =
  expect_pass ~name:"gen loop valid"
    (Check.Gen_ir.loop ~offsets:true ())
    (fun (l : Sim.Input.loop) ->
      let n = Array.length l.Sim.Input.tasks in
      Array.for_all (fun (t : Ir.Task.t) -> t.Ir.Task.work >= 0) l.Sim.Input.tasks
      && List.for_all
           (fun (e : Sim.Input.edge) ->
             e.Sim.Input.src >= 0 && e.Sim.Input.src < n && e.Sim.Input.dst >= 0
             && e.Sim.Input.dst < n
             && l.Sim.Input.tasks.(e.Sim.Input.src).Ir.Task.iteration
                < l.Sim.Input.tasks.(e.Sim.Input.dst).Ir.Task.iteration)
           l.Sim.Input.edges)

let gen_traces_validate () =
  expect_pass ~name:"gen trace validates" (Check.Gen_ir.trace ()) (fun t ->
      match Ir.Trace.validate t with Ok () -> true | Error _ -> false)

let gen_pdgs_are_acyclic () =
  expect_pass ~name:"gen pdg forward edges" (Check.Gen_ir.pdg ()) (fun g ->
      List.for_all (fun (e : Ir.Pdg.edge) -> e.Ir.Pdg.src < e.Ir.Pdg.dst) (Ir.Pdg.edges g))

let () =
  Alcotest.run "check"
    [
      ( "shrinking",
        [
          Alcotest.test_case "int shrinks to the boundary" `Quick shrink_int_to_boundary;
          Alcotest.test_case "list shrinks to a singleton" `Quick shrink_list_to_singleton;
          Alcotest.test_case "pair shrinks both components" `Quick shrink_pair_left_first;
        ] );
      ( "replay",
        [
          Alcotest.test_case "generation deterministic" `Quick generation_deterministic;
          Alcotest.test_case "failure replays from seed" `Quick replay_reproduces_failure;
          Alcotest.test_case "failure prints its seed" `Quick failure_prints_seed;
          Alcotest.test_case "per-name seeds differ" `Quick distinct_names_distinct_seeds;
        ] );
      ( "domain generators",
        [
          Alcotest.test_case "loops well-formed" `Quick gen_loops_are_well_formed;
          Alcotest.test_case "traces validate" `Quick gen_traces_validate;
          Alcotest.test_case "pdgs acyclic" `Quick gen_pdgs_are_acyclic;
        ] );
    ]
