type edge = {
  src : int;
  dst : int;
  loc : int;
  action : Ir.Dep.action;
  src_offset : int;
  dst_offset : int;
  reason : reason;
}

and reason =
  | Pipeline_dataflow
  | Commutative_group of string
  | Value_predicted
  | Value_mispredicted
  | Alias_speculated
  | Control_speculated
  | Explicit_sync
  | Default_sync

let reason_to_string = function
  | Pipeline_dataflow -> "pipeline-dataflow"
  | Commutative_group g -> "commutative:" ^ g
  | Value_predicted -> "value-predicted"
  | Value_mispredicted -> "value-mispredicted"
  | Alias_speculated -> "alias-speculated"
  | Control_speculated -> "control-speculated"
  | Explicit_sync -> "explicit-sync"
  | Default_sync -> "default-sync"

type stats = {
  total : int;
  removed : int;
  speculated : int;
  synchronized : int;
  by_reason : (reason * int) list;
}

let same_iteration_dataflow (loop : Ir.Trace.loop) src dst =
  let s = loop.Ir.Trace.tasks.(src) and c = loop.Ir.Trace.tasks.(dst) in
  s.Ir.Task.iteration = c.Ir.Task.iteration
  && Ir.Task.compare_phase s.Ir.Task.phase c.Ir.Task.phase < 0

(* The action follows from the reason. *)
let action_of = function
  | Commutative_group _ | Value_predicted -> Ir.Dep.Remove
  | Value_mispredicted | Alias_speculated | Control_speculated -> Ir.Dep.Speculate
  | Pipeline_dataflow | Explicit_sync | Default_sync -> Ir.Dep.Synchronize

(* What the plan says about a location: synchronized, value-speculated,
   alias-speculated, or left to the default (synchronize). *)
type loc_class = Sync_loc | Value_loc | Alias_loc | Default_loc

(* Reasons are counted by index: the fixed ones first, then the plan's
   k-th commutative group at [groups_at + k]. *)
let pipeline_dataflow = 0
and value_predicted = 1
and value_mispredicted = 2
and alias_speculated = 3
and control_speculated = 4
and explicit_sync = 5
and default_sync = 6
and groups_at = 7

let resolve ~(plan : Spec_plan.t) ~loc_name ~(loop : Ir.Trace.loop) ~mem_edges =
  let groups = Array.of_list (Spec_plan.commutative_groups plan) in
  let reasons =
    Array.append
      [|
        Pipeline_dataflow;
        Value_predicted;
        Value_mispredicted;
        Alias_speculated;
        Control_speculated;
        Explicit_sync;
        Default_sync;
      |]
      (Array.map (fun g -> Commutative_group g) groups)
  in
  let counts = Array.make (Array.length reasons) 0 in
  let group_reason g =
    let rec go k =
      if k >= Array.length groups then -1
      else if String.equal groups.(k) g then groups_at + k
      else go (k + 1)
    in
    go 0
  in
  let classify lname =
    let named = List.exists (String.equal lname) in
    if named plan.Spec_plan.sync_locs then Sync_loc
    else if named plan.Spec_plan.value_locs then Value_loc
    else
      match plan.Spec_plan.alias with
      | Spec_plan.No_alias -> Default_loc
      | Spec_plan.Alias_all -> Alias_loc
      | Spec_plan.Alias_locs names -> if named names then Alias_loc else Default_loc
  in
  (* Each location is classified on first use; ids past the cache (any
     caller's log may hold them) are classified edge by edge. *)
  let cache_size =
    List.fold_left
      (fun acc (e : Profiling.Mem_profile.edge) -> Int.max acc (e.Profiling.Mem_profile.loc + 1))
      0 mem_edges
    |> Int.min (List.length mem_edges + 64)
  in
  let classes = Array.make cache_size None in
  let class_of loc =
    if loc < 0 || loc >= cache_size then classify (loc_name loc)
    else
      match classes.(loc) with
      | Some c -> c
      | None ->
        let c = classify (loc_name loc) in
        classes.(loc) <- Some c;
        c
  in
  let edge ~src ~dst ~loc ~src_offset ~dst_offset k =
    counts.(k) <- counts.(k) + 1;
    let reason = reasons.(k) in
    { src; dst; loc; action = action_of reason; src_offset; dst_offset; reason }
  in
  let resolve_mem (e : Profiling.Mem_profile.edge) =
    let cls = class_of e.Profiling.Mem_profile.loc in
    let group =
      match e.Profiling.Mem_profile.group with Some g -> group_reason g | None -> -1
    in
    let k =
      if group >= 0 then group
      else if same_iteration_dataflow loop e.src e.dst then pipeline_dataflow
      else
        match cls with
        | Sync_loc -> explicit_sync
        | Value_loc -> if e.predicted then value_predicted else value_mispredicted
        | Alias_loc -> alias_speculated
        | Default_loc -> default_sync
    in
    edge ~src:e.src ~dst:e.dst ~loc:e.loc ~src_offset:e.src_offset ~dst_offset:e.dst_offset k
  in
  let resolve_explicit (d : Ir.Dep.t) =
    let k =
      match d.Ir.Dep.kind with
      | Ir.Dep.Control ->
        if plan.Spec_plan.control_speculated then control_speculated else explicit_sync
      | Ir.Dep.Register | Ir.Dep.Memory ->
        if same_iteration_dataflow loop d.Ir.Dep.src d.Ir.Dep.dst then pipeline_dataflow
        else explicit_sync
    in
    edge ~src:d.Ir.Dep.src ~dst:d.Ir.Dep.dst ~loc:(-1) ~src_offset:0 ~dst_offset:0 k
  in
  let edges =
    List.map resolve_mem mem_edges @ List.map resolve_explicit loop.Ir.Trace.explicit_deps
  in
  let counted = List.filter (fun (_, n) -> n > 0) (Array.to_list (Array.combine reasons counts)) in
  let with_action a =
    List.fold_left (fun acc (r, n) -> if action_of r = a then acc + n else acc) 0 counted
  in
  let stats =
    {
      total = List.length edges;
      removed = with_action Ir.Dep.Remove;
      speculated = with_action Ir.Dep.Speculate;
      synchronized = with_action Ir.Dep.Synchronize;
      by_reason =
        List.sort
          (fun (r1, _) (r2, _) -> String.compare (reason_to_string r1) (reason_to_string r2))
          counted;
    }
  in
  (edges, stats)
