type report = {
  bench : string;
  threads : int;
  beam : int;
  budget : int;
  search : Dswp.Search.result;
}

let breaker_key = function
  | Ir.Pdg.Alias_speculation -> "alias"
  | Ir.Pdg.Value_speculation -> "value"
  | Ir.Pdg.Control_speculation -> "ctrl"
  | Ir.Pdg.Silent_store -> "silent"
  | Ir.Pdg.Commutative_annotation g -> "comm:" ^ g
  | Ir.Pdg.Ybranch_annotation -> "ybr"

let distinct_breakers pdg =
  Ir.Pdg.edges pdg
  |> List.filter_map (fun (e : Ir.Pdg.edge) -> e.Ir.Pdg.breaker)
  |> List.sort_uniq compare

(* Project the hand plan onto a breaker subset: enabled kinds inherit
   the hand plan's scope (or a total default the hand plan never
   needed), disabled kinds are zeroed.  Commutative groups the subset
   enables always get a rollback-bearing registry entry, so the derived
   plan cannot trip the lint's missing-rollback check for a reason the
   candidate did not choose. *)
let derive_plan ~(hand : Speculation.Spec_plan.t) ~pdg_breakers breakers =
  let have b = List.exists (fun b' -> b' = b) breakers in
  let alias =
    if have Ir.Pdg.Alias_speculation then
      match hand.Speculation.Spec_plan.alias with
      | Speculation.Spec_plan.No_alias -> Speculation.Spec_plan.Alias_all
      | scope -> scope
    else Speculation.Spec_plan.No_alias
  in
  let value_locs =
    if have Ir.Pdg.Value_speculation then
      if hand.Speculation.Spec_plan.value_locs <> [] then
        hand.Speculation.Spec_plan.value_locs
      else [ "auto-value" ]
    else []
  in
  let pdg_groups =
    List.filter_map
      (function Ir.Pdg.Commutative_annotation g -> Some g | _ -> None)
      pdg_breakers
  in
  let wanted g = have (Ir.Pdg.Commutative_annotation g) in
  let registry = Annotations.Commutative.create () in
  let hand_reg = hand.Speculation.Spec_plan.commutative in
  List.iter
    (fun g ->
      (* Groups the PDG never references keep their hand entries (they
         cannot affect this loop); referenced groups are copied only
         when the subset enables them. *)
      if (not (List.mem g pdg_groups)) || wanted g then
        List.iter
          (fun fn ->
            Annotations.Commutative.annotate registry ~fn ~group:g
              ?rollback:(Annotations.Commutative.rollback_of hand_reg ~fn)
              ())
          (Annotations.Commutative.members hand_reg ~group:g))
    (Annotations.Commutative.groups hand_reg);
  List.iter
    (fun g ->
      if wanted g && not (List.mem g (Annotations.Commutative.groups registry))
      then
        Annotations.Commutative.annotate registry ~fn:g ~group:g
          ~rollback:("undo_" ^ g) ())
    pdg_groups;
  Speculation.Spec_plan.make ~alias ~value_locs
    ~sync_locs:hand.Speculation.Spec_plan.sync_locs
    ~control_speculated:(have Ir.Pdg.Control_speculation)
    ~commutative:registry
    ~silent_stores:(have Ir.Pdg.Silent_store)
    ()

(* The self-test mutation: merge a serial stage into the replicated
   stage.  The donated nodes are either non-replicable or carry a
   surviving self-dependence (that is why the partitioner kept them out
   of B), so the lint pruner must reject the result. *)
let corrupt_partition (p : Dswp.Partition.t) =
  let s ph = Dswp.Partition.stage p ph in
  let a = s Ir.Task.A and b = s Ir.Task.B and c = s Ir.Task.C in
  let donor = if a.Dswp.Partition.nodes <> [] then a else c in
  if donor.Dswp.Partition.nodes = [] then p
  else begin
    let merged =
      {
        b with
        Dswp.Partition.nodes =
          List.sort compare (donor.Dswp.Partition.nodes @ b.Dswp.Partition.nodes);
        weight = b.Dswp.Partition.weight +. donor.Dswp.Partition.weight;
        replicated = true;
      }
    in
    let drained st =
      { st with Dswp.Partition.nodes = []; weight = 0.0; replicated = false }
    in
    {
      p with
      Dswp.Partition.stages =
        [
          (if donor.Dswp.Partition.phase = Ir.Task.A then drained a else a);
          merged;
          (if donor.Dswp.Partition.phase = Ir.Task.C then drained c else c);
        ];
    }
  end

(* Realized iterations per candidate loop. *)
let iterations = 64

let run ~pool ?(beam = 8) ?(budget = 64) ?(threads = 16) ?(corrupt = false)
    (study : Benchmarks.Study.t) =
  let pdg = study.Benchmarks.Study.pdg () in
  let hand = study.Benchmarks.Study.plan in
  let pdg_breakers = distinct_breakers pdg in
  let hand_breakers =
    List.filter (Speculation.Spec_plan.enabled_breakers hand) pdg_breakers
  in
  let seed =
    {
      Dswp.Search.cand_id = 0;
      cand_label = "seed:hand";
      cand_partitioner = Dswp.Search.Dag_scc;
      cand_breakers = hand_breakers;
      cand_replicate = true;
      cand_queue_capacity = 256;
      cand_seed = true;
    }
  in
  let field =
    Dswp.Search.generate pdg ~replicate_options:[ true; false ]
      ~queue_capacities:[ 8; 256 ] ~first_id:1 ()
  in
  let candidates = seed :: field in
  let plan_of breakers =
    if breakers == hand_breakers then hand
    else derive_plan ~hand ~pdg_breakers breakers
  in
  let cfg_of (cand : Dswp.Search.candidate) =
    let cores = if cand.Dswp.Search.cand_replicate then threads else min threads 3 in
    Machine.Config.make ~cores
      ~queue_capacity:cand.Dswp.Search.cand_queue_capacity ~comm_latency:1 ()
  in
  (* One realization per candidate, shared by measure and simulate, so
     the simulator and the oracle share the loop's index. *)
  let realized : (int, Sim.Input.loop) Hashtbl.t = Hashtbl.create 64 in
  let loop_of (cand : Dswp.Search.candidate) part =
    match Hashtbl.find_opt realized cand.Dswp.Search.cand_id with
    | Some l -> l
    | None ->
      let enabled b =
        List.exists (fun b' -> b' = b) cand.Dswp.Search.cand_breakers
      in
      let l = Sim.Realize.loop pdg ~partition:part ~enabled ~iterations in
      Hashtbl.add realized cand.Dswp.Search.cand_id l;
      l
  in
  let lint batch =
    List.map
      (fun ((cand : Dswp.Search.candidate), part) ->
        let plan = plan_of cand.Dswp.Search.cand_breakers in
        Lint.Driver.run ~pdg ~partition:part ~plan ()
        |> Lint.Diagnostic.errors
        |> List.map (fun d -> Format.asprintf "%a" Lint.Diagnostic.pp d))
      batch
  in
  let measure batch =
    List.map
      (fun ((cand : Dswp.Search.candidate), part) ->
        let loop = loop_of cand part in
        let cfg = cfg_of cand in
        let work = Sim.Input.loop_work loop in
        let lb = Sim.Analytic.lower_bound cfg loop in
        let bound =
          if lb <= 0 then 1.0 else float_of_int work /. float_of_int lb
        in
        let a_work, b_work, c_work = Sim.Analytic.phase_work loop in
        {
          Dswp.Search.ev_bound = bound;
          ev_binding =
            Obs_analysis.Attribution.bound_name
              (Obs_analysis.Attribution.binding cfg ~a_work ~b_work ~c_work ~lower_bound:lb);
        })
      batch
  in
  (* Candidates that realize to the same loop under the same machine
     config share one simulation.  The cache key is semantic (stage
     node sets, breaker set, cores, queue capacity), so the dedup — and
     with it the whole ranking — is identical at any pool size. *)
  let sim_cache : (string, Dswp.Search.sim_row) Hashtbl.t = Hashtbl.create 64 in
  let sim_key (cand : Dswp.Search.candidate) (part : Dswp.Partition.t) =
    let stages =
      List.map
        (fun (s : Dswp.Partition.stage) ->
          String.concat "," (List.map string_of_int s.Dswp.Partition.nodes))
        part.Dswp.Partition.stages
      |> String.concat "|"
    in
    let breakers =
      List.map breaker_key cand.Dswp.Search.cand_breakers
      |> List.sort compare |> String.concat "+"
    in
    let cfg = cfg_of cand in
    Printf.sprintf "%s#%s#c%d#q%d#l%d" stages breakers cfg.Machine.Config.cores
      cfg.Machine.Config.queue_capacity cfg.Machine.Config.comm_latency
  in
  let sim_one ((cand : Dswp.Search.candidate), part) =
    let loop = loop_of cand part in
    let cfg = cfg_of cand in
    let r = Sim.Pipeline.run_loop cfg ~validate:false loop in
    let work = Sim.Input.loop_work loop in
    let speedup =
      if r.Sim.Pipeline.span <= 0 then 1.0
      else float_of_int work /. float_of_int r.Sim.Pipeline.span
    in
    let oracle =
      match Sim.Oracle.validate cfg loop r with
      | Ok () -> Ok ()
      | Error v -> Error (Format.asprintf "%a" Sim.Oracle.pp_violation v)
    in
    { Dswp.Search.sim_speedup = speedup; sim_oracle = oracle }
  in
  let simulate batch =
    let keyed = List.map (fun (c, p) -> (sim_key c p, c, p)) batch in
    let fresh =
      List.fold_left
        (fun acc (key, c, p) ->
          if Hashtbl.mem sim_cache key || List.mem_assoc key acc then acc
          else (key, (c, p)) :: acc)
        [] keyed
      |> List.rev
    in
    let rows =
      Parallel.Pool.map pool
        (fun (_, cp) -> sim_one cp)
        (Array.of_list fresh)
    in
    List.iteri (fun i (key, _) -> Hashtbl.replace sim_cache key rows.(i)) fresh;
    List.map (fun (key, _, _) -> Hashtbl.find sim_cache key) keyed
  in
  let hooks = { Dswp.Search.lint; measure; simulate } in
  let mutate = if corrupt then Some (fun _ part -> corrupt_partition part) else None in
  let search =
    Dswp.Search.run ~pdg ~hooks ?mutate ~candidates ~beam ~budget ()
  in
  { bench = study.Benchmarks.Study.spec_name; threads; beam; budget; search }

let seed_outcome report =
  List.find_opt
    (fun (o : Dswp.Search.outcome) -> o.Dswp.Search.out_candidate.Dswp.Search.cand_seed)
    report.search.Dswp.Search.ranked

let speedup_of (o : Dswp.Search.outcome) =
  match o.Dswp.Search.out_status with
  | Dswp.Search.Simulated row -> Some row.Dswp.Search.sim_speedup
  | _ -> None

let seed_speedup report = Option.bind (seed_outcome report) speedup_of

let winner_speedup report =
  Option.bind report.search.Dswp.Search.winner speedup_of

let oracle_clean report =
  List.for_all
    (fun (o : Dswp.Search.outcome) ->
      match o.Dswp.Search.out_status with
      | Dswp.Search.Simulated row -> row.Dswp.Search.sim_oracle = Ok ()
      | _ -> true)
    report.search.Dswp.Search.ranked

let pp ppf report =
  let r = report.search in
  Format.fprintf ppf "plan search: %s at %d threads (beam %d, budget %d)@."
    report.bench report.threads report.beam report.budget;
  Format.fprintf ppf "%-4s  %-34s %-8s %8s %8s  %s@." "rank" "candidate"
    "partnr" "bound" "speedup" "status";
  let rank = ref 0 in
  List.iter
    (fun (o : Dswp.Search.outcome) ->
      let cand = o.Dswp.Search.out_candidate in
      let bound =
        match o.Dswp.Search.out_eval with
        | Some e -> Printf.sprintf "%.3f" e.Dswp.Search.ev_bound
        | None -> "-"
      in
      let rank_s, speedup, status =
        match o.Dswp.Search.out_status with
        | Dswp.Search.Simulated row ->
          incr rank;
          ( string_of_int !rank,
            Printf.sprintf "%.3f" row.Dswp.Search.sim_speedup,
            (match row.Dswp.Search.sim_oracle with
            | Ok () -> "ok"
            | Error v -> "ORACLE: " ^ v) )
        | Dswp.Search.Bound_pruned -> ("-", "-", "bound-pruned")
        | Dswp.Search.Budget_pruned -> ("-", "-", "budget-pruned")
        | Dswp.Search.Lint_pruned errs ->
          ("-", "-", Printf.sprintf "lint-pruned (%d errors)" (List.length errs))
      in
      Format.fprintf ppf "%-4s  %-34s %-8s %8s %8s  %s@." rank_s
        cand.Dswp.Search.cand_label
        (Dswp.Search.partitioner_name cand.Dswp.Search.cand_partitioner)
        bound speedup status)
    r.Dswp.Search.ranked;
  let c = r.Dswp.Search.counts in
  Format.fprintf ppf
    "counts: generated %d, lint-pruned %d, bound-pruned %d, budget-pruned %d, simulated %d@."
    c.Dswp.Search.generated c.Dswp.Search.lint_pruned c.Dswp.Search.bound_pruned
    c.Dswp.Search.budget_pruned c.Dswp.Search.simulated;
  match (r.Dswp.Search.winner, seed_speedup report) with
  | Some w, hand ->
    let ws = Option.value ~default:nan (speedup_of w) in
    Format.fprintf ppf "winner: %s (%s) speedup %.3f%s@."
      w.Dswp.Search.out_candidate.Dswp.Search.cand_label
      (Dswp.Search.partitioner_name
         w.Dswp.Search.out_candidate.Dswp.Search.cand_partitioner)
      ws
      (match hand with
      | Some h -> Printf.sprintf " (hand plan %.3f)" h
      | None -> " (hand plan not simulated)")
  | None, _ -> Format.fprintf ppf "winner: none (no candidate survived)@."
