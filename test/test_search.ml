(* The planner tournament: the Dswp.Search engine, the backward-slicing
   partitioner, partitioner hardening (stack-safe reachability on deep
   chains, hashed condensation dedup on dense graphs), and the
   Core.Plan_search wiring against the benchmark registry. *)

module D = Lint.Diagnostic
module R = Check.Runner
module P = Dswp.Partition
module S = Dswp.Search

(* No explicit ~count: dune runtest uses the engine default (100),
   `dune build @prop` scales it to 1000 via CHECK_COUNT. *)
let expect_pass ~name gen prop =
  R.run_prop_exn ~print:(Format.asprintf "%a" Ir.Pdg.pp) ~name gen prop

(* ------------------------------------------------------------------ *)
(* Real hooks: the same lint / bound / simulate machinery Core.Plan_search
   wires in, minus the plan derivation (Plan_check's enabled predicate
   stands in for a full Spec_plan).  Used by the emitted-plans property. *)

let real_hooks pdg =
  let threads = 8 and iterations = 12 in
  let loops = Hashtbl.create 32 in
  let enabled_of (c : S.candidate) b = List.mem b c.S.cand_breakers in
  let cfg_of (c : S.candidate) =
    let cores = if c.S.cand_replicate then threads else min threads 3 in
    Machine.Config.make ~cores ~queue_capacity:c.S.cand_queue_capacity ()
  in
  let realize (c : S.candidate) part =
    match Hashtbl.find_opt loops c.S.cand_id with
    | Some l -> l
    | None ->
        let l =
          Sim.Realize.loop pdg ~partition:part ~enabled:(enabled_of c) ~iterations
        in
        Hashtbl.add loops c.S.cand_id l;
        l
  in
  let lint batch =
    List.map
      (fun ((c : S.candidate), part) ->
        D.errors (Lint.Plan_check.check_enabled ~pdg ~partition:part ~enabled:(enabled_of c))
        |> List.map (Format.asprintf "%a" D.pp))
      batch
  in
  let measure batch =
    List.map
      (fun ((c : S.candidate), part) ->
        let loop = realize c part in
        let work = float_of_int (Sim.Input.loop_work loop) in
        let lb = Sim.Analytic.lower_bound (cfg_of c) loop in
        let bound = if lb <= 0 then 1.0 else work /. float_of_int lb in
        { S.ev_bound = bound; ev_binding = "test" })
      batch
  in
  let simulate batch =
    List.map
      (fun ((c : S.candidate), part) ->
        let loop = realize c part in
        let cfg = cfg_of c in
        let r = Sim.Pipeline.run_loop cfg ~validate:false loop in
        let work = float_of_int (Sim.Input.loop_work loop) in
        let speedup =
          if r.Sim.Sched.span <= 0 then 1.0 else work /. float_of_int r.Sim.Sched.span
        in
        let oracle =
          match Sim.Oracle.validate cfg loop r with
          | Ok () -> Ok ()
          | Error v -> Error (Format.asprintf "%a" Sim.Oracle.pp_violation v)
        in
        { S.sim_speedup = speedup; sim_oracle = oracle })
      batch
  in
  { S.lint; measure; simulate }

(* @prop: every plan the search emits — i.e. every candidate it actually
   simulates and ranks — lints clean and passes the oracle on its
   simulated run, over random breaker-decorated PDGs. *)
let emitted_plans_sound =
  let gen = Check.Gen_ir.pdg ~max_nodes:8 ~breakers:true ~self_deps:true () in
  let prop pdg =
    let candidates = S.generate pdg ~first_id:0 () in
    let res = S.run ~pdg ~hooks:(real_hooks pdg) ~candidates ~beam:4 ~budget:12 () in
    res.S.counts.S.generated = List.length candidates
    && List.for_all
         (fun (o : S.outcome) ->
           match o.S.out_status with
           | S.Simulated row ->
               row.S.sim_oracle = Ok ()
               && D.errors
                    (Lint.Plan_check.check_enabled ~pdg ~partition:o.S.out_part
                       ~enabled:(fun b -> List.mem b o.S.out_candidate.S.cand_breakers))
                  = []
           | S.Lint_pruned msgs -> msgs <> []
           | S.Bound_pruned | S.Budget_pruned -> true)
         res.S.ranked
  in
  Alcotest.test_case "@prop emitted plans lint clean, oracle valid" `Quick (fun () ->
      expect_pass ~name:"search emitted plans sound" gen prop)

(* ------------------------------------------------------------------ *)
(* Satellite 1: deep-chain regression.  A >=100k-node linear chain used
   to blow the stack in both the recursive Tarjan SCC and the recursive
   condensation reachability; the worklist versions must walk it. *)

let chain_pdg n =
  let pdg = Ir.Pdg.create "chain" in
  let w = 1.0 /. float_of_int n in
  let ids =
    Array.init n (fun i ->
        Ir.Pdg.add_node pdg ~label:(string_of_int i) ~weight:w
          ~replicable:(i = n - 1) ())
  in
  for i = 0 to n - 2 do
    Ir.Pdg.add_edge pdg ~src:ids.(i) ~dst:ids.(i + 1) ~kind:Ir.Dep.Register ()
  done;
  pdg

let deep_chain_both_partitioners () =
  let n = 120_000 in
  let pdg = chain_pdg n in
  let enabled _ = false in
  let check_part label part =
    let b = P.stage part Ir.Task.B in
    Alcotest.(check (list int)) (label ^ " B") [ n - 1 ] b.P.nodes;
    Alcotest.(check int) (label ^ " A size") (n - 1)
      (List.length (P.stage part Ir.Task.A).P.nodes);
    Alcotest.(check (list int)) (label ^ " C") [] (P.stage part Ir.Task.C).P.nodes
  in
  check_part "dag-scc" (P.partition pdg ~enabled);
  check_part "slicing" (Dswp.Slice_partition.partition pdg ~enabled)

(* ------------------------------------------------------------------ *)
(* Satellite 2: condensation dedup cost.  A star — one hub component
   with E distinct successors — is the old dedup's worst case: every
   edge re-scanned the hub's whole adjacency list, Theta(E^2) total,
   tens of seconds at E=120k.  The hashed edge set does one O(1)
   membership test per edge.  One condense of the 120k-edge star is
   timed in processor time; the budget is generous for slow machines
   but far below what the quadratic scan costs. *)

let star_pdg e =
  let pdg = Ir.Pdg.create "star" in
  let w = 1.0 /. float_of_int (e + 1) in
  let hub = Ir.Pdg.add_node pdg ~label:"hub" ~weight:w ~replicable:false () in
  for _ = 1 to e do
    let d = Ir.Pdg.add_node pdg ~label:"d" ~weight:w ~replicable:false () in
    Ir.Pdg.add_edge pdg ~src:hub ~dst:d ~kind:Ir.Dep.Register ()
  done;
  pdg

let condensation_dedup_linear () =
  let pdg = star_pdg 120_000 in
  let t0 = Sys.time () in
  let c = Dswp.Scc_util.condense pdg ~surviving:(fun _ -> true) in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "one component per node" (Ir.Pdg.node_count pdg)
    (Dswp.Scc_util.component_count c);
  Alcotest.(check bool)
    (Printf.sprintf "linear-time dedup (%.2fs, budget 3s)" elapsed)
    true (elapsed < 3.0)

(* ------------------------------------------------------------------ *)
(* Slice_partition units. *)

let enabled_none _ = false

let slice_keeps_ordered_chain () =
  (* p -> w1 -> w2: the DAG-SCC growth keeps only one of the ordered
     eligible SCCs; the slice keeps both (an iteration runs its whole
     slice on one replica, so order within B is free). *)
  let g = Ir.Pdg.create "ordered" in
  let p = Ir.Pdg.add_node g ~label:"p" ~weight:0.2 () in
  let w1 = Ir.Pdg.add_node g ~label:"w1" ~weight:0.4 ~replicable:true () in
  let w2 = Ir.Pdg.add_node g ~label:"w2" ~weight:0.4 ~replicable:true () in
  Ir.Pdg.add_edge g ~src:p ~dst:p ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:p ~dst:w1 ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:w1 ~dst:w2 ~kind:Ir.Dep.Register ();
  let dag = P.partition g ~enabled:enabled_none in
  let slice = Dswp.Slice_partition.partition g ~enabled:enabled_none in
  Alcotest.(check int) "dag-scc keeps one" 1
    (List.length (P.stage dag Ir.Task.B).P.nodes);
  Alcotest.(check (list int)) "slice keeps both" [ w1; w2 ]
    (P.stage slice Ir.Task.B).P.nodes;
  Alcotest.(check (list int)) "slice A" [ p ] (P.stage slice Ir.Task.A).P.nodes;
  Alcotest.(check int) "slice lints clean" 0
    (List.length (D.errors (Lint.Plan_check.check_enabled ~pdg:g ~partition:slice ~enabled:enabled_none)))

let slice_evicts_carried_pair () =
  (* w1 -carried-> w2, unbreakable: both cannot be in B, the lighter
     endpoint is evicted. *)
  let g = Ir.Pdg.create "pair" in
  let w1 = Ir.Pdg.add_node g ~label:"w1" ~weight:0.6 ~replicable:true () in
  let w2 = Ir.Pdg.add_node g ~label:"w2" ~weight:0.4 ~replicable:true () in
  Ir.Pdg.add_edge g ~src:w1 ~dst:w2 ~kind:Ir.Dep.Memory ~loop_carried:true ();
  let slice = Dswp.Slice_partition.partition g ~enabled:enabled_none in
  Alcotest.(check (list int)) "heavier stays" [ w1 ] (P.stage slice Ir.Task.B).P.nodes;
  Alcotest.(check (list int)) "lighter demoted" [ w2 ] (P.stage slice Ir.Task.C).P.nodes;
  Alcotest.(check int) "lints clean" 0
    (List.length (D.errors (Lint.Plan_check.check_enabled ~pdg:g ~partition:slice ~enabled:enabled_none)))

let slice_evicts_sandwich () =
  (* b1 -> d -> b2 with d ineligible: d would be sandwiched between two
     B members, so the lighter side of B (here b1) is evicted. *)
  let g = Ir.Pdg.create "sandwich" in
  let b1 = Ir.Pdg.add_node g ~label:"b1" ~weight:0.2 ~replicable:true () in
  let d = Ir.Pdg.add_node g ~label:"d" ~weight:0.3 () in
  let b2 = Ir.Pdg.add_node g ~label:"b2" ~weight:0.5 ~replicable:true () in
  Ir.Pdg.add_edge g ~src:b1 ~dst:d ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:d ~dst:b2 ~kind:Ir.Dep.Register ();
  let slice = Dswp.Slice_partition.partition g ~enabled:enabled_none in
  Alcotest.(check (list int)) "B" [ b2 ] (P.stage slice Ir.Task.B).P.nodes;
  Alcotest.(check (list int)) "A absorbs the evictee" [ b1; d ]
    (P.stage slice Ir.Task.A).P.nodes

(* ------------------------------------------------------------------ *)
(* Engine units: synthetic hooks keyed by candidate id let us pin down
   the wave logic exactly. *)

let unit_pdg () =
  let g = Ir.Pdg.create "unit" in
  let _ = Ir.Pdg.add_node g ~label:"w" ~weight:1.0 ~replicable:true () in
  g

let mk_cand ?(seed = false) id =
  {
    S.cand_id = id;
    cand_label = (if seed then "seed" else "c" ^ string_of_int id);
    cand_partitioner = S.Dag_scc;
    cand_breakers = [];
    cand_replicate = true;
    cand_queue_capacity = 256;
    cand_seed = seed;
  }

let table_hooks bounds speeds =
  let find tbl (c : S.candidate) = List.assoc c.S.cand_id tbl in
  {
    S.lint = List.map (fun _ -> []);
    measure =
      List.map (fun (c, _) -> { S.ev_bound = find bounds c; ev_binding = "t" });
    simulate =
      List.map (fun (c, _) -> { S.sim_speedup = find speeds c; sim_oracle = Ok () });
  }

let status_of res id =
  let o = List.find (fun (o : S.outcome) -> o.S.out_candidate.S.cand_id = id) res.S.ranked in
  o.S.out_status

let engine_budget_spares_seed () =
  let pdg = unit_pdg () in
  let candidates = [ mk_cand ~seed:true 0; mk_cand 1; mk_cand 2 ] in
  let hooks = table_hooks [ (0, 4.0); (1, 9.0); (2, 8.0) ] [ (0, 3.0); (1, 5.0); (2, 4.0) ] in
  let res = S.run ~pdg ~hooks ~candidates ~beam:2 ~budget:1 () in
  Alcotest.(check int) "only the seed simulated" 1 res.S.counts.S.simulated;
  Alcotest.(check int) "rest budget-pruned" 2 res.S.counts.S.budget_pruned;
  (match status_of res 0 with
  | S.Simulated _ -> ()
  | _ -> Alcotest.fail "seed must be simulated even at budget 1");
  match res.S.winner with
  | Some o -> Alcotest.(check int) "winner is the seed" 0 o.S.out_candidate.S.cand_id
  | None -> Alcotest.fail "no winner"

let engine_bound_prunes_after_wave () =
  let pdg = unit_pdg () in
  let candidates = [ mk_cand ~seed:true 0; mk_cand 1; mk_cand 2 ] in
  (* Wave 1 (beam 2): seed + c1; incumbent becomes 6.0.  Wave 2: c2's
     bound 4.0 cannot beat it. *)
  let hooks = table_hooks [ (0, 10.0); (1, 6.5); (2, 4.0) ] [ (0, 5.0); (1, 6.0); (2, 9.9) ] in
  let res = S.run ~pdg ~hooks ~candidates ~beam:2 ~budget:64 () in
  Alcotest.(check int) "two simulated" 2 res.S.counts.S.simulated;
  Alcotest.(check int) "one bound-pruned" 1 res.S.counts.S.bound_pruned;
  (match status_of res 2 with
  | S.Bound_pruned -> ()
  | _ -> Alcotest.fail "c2 must be bound-pruned");
  match res.S.winner with
  | Some o -> Alcotest.(check int) "winner" 1 o.S.out_candidate.S.cand_id
  | None -> Alcotest.fail "no winner"

let engine_mutate_caught_by_lint () =
  (* The corrupted-generator self-test: mutate merges everything into a
     replicated B holding a non-replicable node with a surviving carried
     self-dep; the lint must prune every mutated candidate while the
     (unmutated) seed sails through. *)
  let g = Ir.Pdg.create "corrupt" in
  let s = Ir.Pdg.add_node g ~label:"serial" ~weight:0.5 () in
  let w = Ir.Pdg.add_node g ~label:"work" ~weight:0.5 ~replicable:true () in
  Ir.Pdg.add_edge g ~src:s ~dst:s ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:s ~dst:w ~kind:Ir.Dep.Register ();
  let mutate _ (p : P.t) =
    let all = List.concat_map (fun (st : P.stage) -> st.P.nodes) p.P.stages in
    let weight = List.fold_left (fun acc (st : P.stage) -> acc +. st.P.weight) 0.0 p.P.stages in
    let mk phase nodes weight replicated = { P.phase; nodes; weight; replicated } in
    {
      p with
      P.stages =
        [
          mk Ir.Task.A [] 0.0 false;
          mk Ir.Task.B (List.sort compare all) weight true;
          mk Ir.Task.C [] 0.0 false;
        ];
    }
  in
  let lint batch =
    List.map
      (fun ((c : S.candidate), part) ->
        D.errors
          (Lint.Plan_check.check_enabled ~pdg:g ~partition:part
             ~enabled:(fun b -> List.mem b c.S.cand_breakers))
        |> List.map (Format.asprintf "%a" D.pp))
      batch
  in
  let hooks =
    {
      S.lint;
      measure = List.map (fun _ -> { S.ev_bound = 2.0; ev_binding = "t" });
      simulate = List.map (fun _ -> { S.sim_speedup = 1.5; sim_oracle = Ok () });
    }
  in
  let candidates = [ mk_cand ~seed:true 0; mk_cand 1; mk_cand 2 ] in
  let res = S.run ~pdg:g ~hooks ~mutate ~candidates ~beam:4 ~budget:8 () in
  Alcotest.(check int) "mutants lint-pruned" 2 res.S.counts.S.lint_pruned;
  Alcotest.(check int) "seed simulated" 1 res.S.counts.S.simulated

let engine_deterministic () =
  let pdg = unit_pdg () in
  let candidates = List.init 6 (fun i -> mk_cand ~seed:(i = 0) i) in
  let bounds = List.init 6 (fun i -> (i, float_of_int (10 - i))) in
  let speeds = List.init 6 (fun i -> (i, float_of_int ((i * 3 mod 7) + 1))) in
  let run () =
    let res = S.run ~pdg ~hooks:(table_hooks bounds speeds) ~candidates ~beam:2 ~budget:4 () in
    List.map (fun (o : S.outcome) -> o.S.out_candidate.S.cand_label) res.S.ranked
  in
  Alcotest.(check (list string)) "identical ranking" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Registry gate: the full Core.Plan_search wiring on two benches.  The
   winner must match or beat the hand seed, every simulated run must
   satisfy the oracle, and the ranked table must be byte-identical
   regardless of the pool size. *)

let registry_gate () =
  List.iter
    (fun name ->
      let study =
        List.find
          (fun (s : Benchmarks.Study.t) -> s.Benchmarks.Study.spec_name = name)
          Benchmarks.Registry.all
      in
      let render domains =
        Parallel.Pool.with_pool ~domains (fun pool ->
            let r = Core.Plan_search.run ~pool study in
            (Format.asprintf "%a" Core.Plan_search.pp r, r))
      in
      let out1, r1 = render 1 in
      let out4, _ = render 4 in
      Alcotest.(check string) (name ^ ": pool-size independent") out1 out4;
      Alcotest.(check bool) (name ^ ": oracle clean") true (Core.Plan_search.oracle_clean r1);
      match (Core.Plan_search.winner_speedup r1, Core.Plan_search.seed_speedup r1) with
      | Some w, Some h ->
          if w +. 1e-9 < h then
            Alcotest.failf "%s: winner %.3f below hand plan %.3f" name w h
      | _ -> Alcotest.fail (name ^ ": missing winner or hand seed"))
    [ "164.gzip"; "181.mcf" ]

let () =
  Alcotest.run "search"
    [
      ("property", [ emitted_plans_sound ]);
      ( "hardening",
        [
          Alcotest.test_case "120k-node chain" `Quick deep_chain_both_partitioners;
          Alcotest.test_case "condense dedup linear" `Quick condensation_dedup_linear;
        ] );
      ( "slicing",
        [
          Alcotest.test_case "ordered chain stays" `Quick slice_keeps_ordered_chain;
          Alcotest.test_case "carried pair evicted" `Quick slice_evicts_carried_pair;
          Alcotest.test_case "sandwich evicted" `Quick slice_evicts_sandwich;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget spares seed" `Quick engine_budget_spares_seed;
          Alcotest.test_case "bound prunes after wave" `Quick engine_bound_prunes_after_wave;
          Alcotest.test_case "mutants lint-pruned" `Quick engine_mutate_caught_by_lint;
          Alcotest.test_case "deterministic" `Quick engine_deterministic;
        ] );
      ("registry", [ Alcotest.test_case "gzip+mcf gate" `Quick registry_gate ]);
    ]
