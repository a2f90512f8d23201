(* Reference dependence build: Mem_profile.analyze, Resolve.resolve,
   Input.merge_edges and Framework.build as they were before their
   bookkeeping moved onto int-indexed arrays, kept verbatim.  They hash
   every (src, dst, loc) triple and (src, dst) pair, look up each edge's
   location name and test it against the plan's lists edge by edge, but
   every decision is plainly the rule.  Core.Framework.build must give
   the same input and diagnostics as [Framework.build] here, and
   Mem_profile.analyze the same edges as [Mem_profile.analyze]
   (test_profiling.ml, test_core.ml). *)

module Mem_profile = struct
  open Profiling.Mem_profile
  module Access_log = Profiling.Access_log

  (* State tracked per location while replaying the log in sequential
     order. *)
  type loc_state = {
    mutable value : int option;  (* current stored value *)
    mutable writer : int;  (* task of last effective write; -1 if none *)
    mutable writer_group : string option;
    mutable writer_silent : bool;
    mutable writer_offset : int;
    mutable last_read_value : int option;  (* for the last-value predictor *)
  }

  let fresh_loc () =
    {
      value = None;
      writer = -1;
      writer_group = None;
      writer_silent = false;
      writer_offset = 0;
      last_read_value = None;
    }

  let analyze ?(config = default_config) ?iteration_of log =
    let states : (int, loc_state) Hashtbl.t = Hashtbl.create 64 in
    let state loc =
      match Hashtbl.find_opt states loc with
      | Some s -> s
      | None ->
        let s = fresh_loc () in
        Hashtbl.add states loc s;
        s
    in
    (* Keyed by (src, dst, loc); first occurrence kept (earliest read). *)
    let seen : (int * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let edges_rev = ref [] in
    let handle (e : Access_log.entry) =
      let s = state e.loc in
      match e.op with
      | Access_log.Write v ->
        let silent = config.silent_stores && s.value = Some v in
        s.value <- Some v;
        if not silent then begin
          s.writer <- e.task;
          s.writer_group <- e.group;
          s.writer_silent <- false;
          s.writer_offset <- e.offset
        end
      | Access_log.Read ->
        (match s.value with
        | None -> ()
        | Some v ->
          if s.writer >= 0 && s.writer <> e.task then begin
            let key = (s.writer, e.task, e.loc) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              let group =
                (* The edge lives inside a commutative group only when both
                   endpoints executed under the same group: that is the
                   function-internal state the annotation hides. *)
                match (s.writer_group, e.group) with
                | Some g1, Some g2 when g1 = g2 -> Some g1
                | _ -> None
              in
              let predicted = s.last_read_value = Some v in
              let distance =
                match iteration_of with
                | Some f -> Some (f e.task - f s.writer)
                | None -> None
              in
              edges_rev :=
                {
                  src = s.writer;
                  dst = e.task;
                  loc = e.loc;
                  group;
                  silent = false;
                  predicted;
                  src_offset = s.writer_offset;
                  dst_offset = e.offset;
                  distance;
                }
                :: !edges_rev
            end;
            s.last_read_value <- Some v
          end)
    in
    List.iter handle (Access_log.entries log);
    List.rev !edges_rev
end

module Resolve = struct
  open Speculation.Resolve
  module Spec_plan = Speculation.Spec_plan

  let same_iteration_dataflow (loop : Ir.Trace.loop) src dst =
    let s = loop.Ir.Trace.tasks.(src) and c = loop.Ir.Trace.tasks.(dst) in
    s.Ir.Task.iteration = c.Ir.Task.iteration
    && Ir.Task.compare_phase s.Ir.Task.phase c.Ir.Task.phase < 0

  let compare_reasons (r1, _) (r2, _) =
    compare (reason_to_string r1) (reason_to_string r2)

  let resolve ~(plan : Spec_plan.t) ~loc_name ~(loop : Ir.Trace.loop) ~mem_edges =
    let groups = Spec_plan.commutative_groups plan in
    let value_locs = plan.Spec_plan.value_locs in
    let sync_locs = plan.Spec_plan.sync_locs in
    let alias_covers lname =
      match plan.Spec_plan.alias with
      | Spec_plan.No_alias -> false
      | Spec_plan.Alias_all -> true
      | Spec_plan.Alias_locs names -> List.mem lname names
    in
    let resolve_mem (e : Profiling.Mem_profile.edge) =
      let lname = loc_name e.Profiling.Mem_profile.loc in
      let action, reason =
        match e.Profiling.Mem_profile.group with
        | Some g when List.mem g groups -> (Ir.Dep.Remove, Commutative_group g)
        | _ ->
          if same_iteration_dataflow loop e.src e.dst then
            (Ir.Dep.Synchronize, Pipeline_dataflow)
          else if List.mem lname sync_locs then (Ir.Dep.Synchronize, Explicit_sync)
          else if List.mem lname value_locs then
            if e.predicted then (Ir.Dep.Remove, Value_predicted)
            else (Ir.Dep.Speculate, Value_mispredicted)
          else if alias_covers lname then (Ir.Dep.Speculate, Alias_speculated)
          else (Ir.Dep.Synchronize, Default_sync)
      in
      {
        src = e.src;
        dst = e.dst;
        loc = e.loc;
        action;
        src_offset = e.src_offset;
        dst_offset = e.dst_offset;
        reason;
      }
    in
    let resolve_explicit (d : Ir.Dep.t) =
      let action, reason =
        match d.Ir.Dep.kind with
        | Ir.Dep.Control ->
          if plan.Spec_plan.control_speculated then (Ir.Dep.Speculate, Control_speculated)
          else (Ir.Dep.Synchronize, Explicit_sync)
        | Ir.Dep.Register | Ir.Dep.Memory ->
          if same_iteration_dataflow loop d.Ir.Dep.src d.Ir.Dep.dst then
            (Ir.Dep.Synchronize, Pipeline_dataflow)
          else (Ir.Dep.Synchronize, Explicit_sync)
      in
      {
        src = d.Ir.Dep.src;
        dst = d.Ir.Dep.dst;
        loc = -1;
        action;
        src_offset = 0;
        dst_offset = 0;
        reason;
      }
    in
    let edges =
      List.map resolve_mem mem_edges
      @ List.map resolve_explicit loop.Ir.Trace.explicit_deps
    in
    let count pred = List.length (List.filter pred edges) in
    let reasons =
      List.fold_left
        (fun acc e ->
          let cur = Option.value ~default:0 (List.assoc_opt e.reason acc) in
          (e.reason, cur + 1) :: List.remove_assoc e.reason acc)
        [] edges
    in
    let stats =
      {
        total = List.length edges;
        removed = count (fun e -> e.action = Ir.Dep.Remove);
        speculated = count (fun e -> e.action = Ir.Dep.Speculate);
        synchronized = count (fun e -> e.action = Ir.Dep.Synchronize);
        by_reason = List.sort compare_reasons reasons;
      }
    in
    (edges, stats)
end

module Input = struct
  open Sim.Input

  let merge_edges edges =
    let tbl : (int * int, edge) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun e ->
        let key = (e.src, e.dst) in
        match Hashtbl.find_opt tbl key with
        | None ->
          Hashtbl.add tbl key e;
          order := key :: !order
        | Some old ->
          (* Keep the strongest combination: a synchronized edge dominates a
             speculated one; the tightest offsets dominate. *)
          let merged =
            {
              e with
              speculated = old.speculated && e.speculated;
              src_offset = max old.src_offset e.src_offset;
              dst_offset = min old.dst_offset e.dst_offset;
            }
          in
          Hashtbl.replace tbl key merged)
      edges;
    List.rev_map (fun key -> Hashtbl.find tbl key) !order

  (* Input.make_loop's validation has passed on the loops rebuilt here,
     and its own merge must keep the merged list as it is. *)
  let make_loop ~name ~tasks ~edges =
    let edges = merge_edges edges in
    let loop = Sim.Input.make_loop ~name ~tasks ~edges in
    if loop.edges <> edges then failwith "Ref_build.Input.make_loop: edges changed";
    loop
end

module Framework = struct
  open Core.Framework

  let sim_edges resolved =
    List.filter_map
      (fun (e : Speculation.Resolve.edge) ->
        match e.Speculation.Resolve.action with
        | Ir.Dep.Remove -> None
        | Ir.Dep.Synchronize ->
          Some
            {
              Sim.Input.src = e.src;
              dst = e.dst;
              speculated = false;
              src_offset = e.src_offset;
              dst_offset = e.dst_offset;
            }
        | Ir.Dep.Speculate ->
          Some
            {
              Sim.Input.src = e.src;
              dst = e.dst;
              speculated = true;
              src_offset = e.src_offset;
              dst_offset = e.dst_offset;
            })
      resolved

  let build ?(plan_for = fun _ -> None) ~plan profile =
    let trace = Profiling.Profile.trace profile in
    (match Ir.Trace.validate trace with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Framework.build: invalid trace: " ^ msg));
    let loc_name id =
      try Profiling.Profile.loc_name profile id with Not_found -> Printf.sprintf "loc_%d" id
    in
    let diagnostics = ref [] in
    let segments =
      List.map
        (fun seg ->
          match seg with
          | Ir.Trace.Serial w -> Sim.Input.Serial w
          | Ir.Trace.Loop loop ->
            let loop_plan =
              Option.value ~default:plan (plan_for loop.Ir.Trace.loop_name)
            in
            let log = Profiling.Profile.log_of profile loop.Ir.Trace.loop_name in
            let config =
              { Profiling.Mem_profile.silent_stores = loop_plan.Speculation.Spec_plan.silent_stores }
            in
            let mem_edges = Mem_profile.analyze ~config log in
            let resolved, stats =
              Resolve.resolve ~plan:loop_plan ~loc_name ~loop ~mem_edges
            in
            diagnostics :=
              {
                loop_name = loop.Ir.Trace.loop_name;
                resolve_stats = stats;
                tasks = Array.length loop.Ir.Trace.tasks;
                iterations = Ir.Trace.loop_iterations loop;
              }
              :: !diagnostics;
            Sim.Input.Parallel
              (Input.make_loop ~name:loop.Ir.Trace.loop_name ~tasks:loop.Ir.Trace.tasks
                 ~edges:(sim_edges resolved)))
        trace.Ir.Trace.segments
    in
    {
      input = Sim.Input.make ~name:trace.Ir.Trace.name ~segments;
      diagnostics = List.rev !diagnostics;
    }
end
