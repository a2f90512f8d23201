(* Reference analysis: a stall timeline that rebuilds the queue step
   functions as lists for every idle gap and scans the commits from
   iteration 0 at every gap point, and a core-exclusivity check that
   sorts every core's (start, finish, task) tuples with polymorphic
   compare.  Both are quadratic or worse and obviously right;
   Obs_analysis.Timeline and Sim.Oracle must agree with them exactly
   (test_obs_prop.ml, test_oracle.ml, test_analysis.ml). *)

module Timeline = struct
  module E = Obs.Event

  type category = Obs_analysis.Timeline.category =
    | Busy
    | Producer_blocked
    | Consumer_starved
    | Dep_wait
    | Idle

  type segment = Obs_analysis.Timeline.segment = { t0 : int; t1 : int; cat : category }

  type core_line = Obs_analysis.Timeline.core_line = { core : int; segments : segment list }

  type t = Obs_analysis.Timeline.t = {
    span : int;
    cores : core_line array;
    in_queues_full : int;
    any_in_queue_full : int;
    any_out_queue_full : int;
  }

  (* ------------------------------------------------------------------ *)
  (* Step functions: value 0 at time 0, then the recorded changes.  Queue
     occupancies are reconstructed into these from push/pop events. *)

  type step_fn = { times : int array; vals : int array }

  let step_fn_of_changes changes =
    (* [changes] is (time, value) in emission (hence time) order; keep the
       last value per timestamp and anchor the function at (0, 0). *)
    let rec dedup = function
      | (t1, _) :: ((t2, _) :: _ as rest) when t1 = t2 -> dedup rest
      | kv :: rest -> kv :: dedup rest
      | [] -> []
    in
    let changes = dedup changes in
    let changes = match changes with (0, _) :: _ -> changes | _ -> (0, 0) :: changes in
    { times = Array.of_list (List.map fst changes); vals = Array.of_list (List.map snd changes) }

  let value_at fn t =
    (* Largest i with times.(i) <= t; times.(0) = 0 <= t always. *)
    let lo = ref 0 and hi = ref (Array.length fn.times - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fn.times.(mid) <= t then lo := mid else hi := mid - 1
    done;
    fn.vals.(!lo)

  (* Sorted unique change times of any of [fns] strictly inside (t0, t1). *)
  let change_points fns t0 t1 =
    List.concat_map
      (fun fn -> Array.to_list fn.times |> List.filter (fun t -> t > t0 && t < t1))
      fns
    |> List.sort_uniq compare

  (* Total time within [0, span] during which [pred] holds over the
     current values of [fns]. *)
  let integrate ~span fns pred =
    if span <= 0 || fns = [] then 0
    else begin
      let pts = 0 :: change_points fns (-1) span in
      let rec go acc = function
        | [] -> acc
        | t :: rest ->
          let t' = match rest with t' :: _ -> t' | [] -> span in
          let acc = if pred (List.map (fun fn -> value_at fn t) fns) then acc + (t' - t) else acc in
          go acc rest
      in
      go 0 pts
    end

  (* ------------------------------------------------------------------ *)

  type role = Role_serial | Role_a | Role_b of int | Role_c | Role_ac

  let of_events (cfg : Machine.Config.t) (loop : Sim.Input.loop) (r : Sim.Sched.loop_result)
      events =
    let n = cfg.Machine.Config.cores in
    let cap = cfg.Machine.Config.queue_capacity in
    let lat = cfg.Machine.Config.comm_latency in
    let span = r.Sim.Sched.span in
    let iters = Sim.Input.iterations loop in
    (* Roles. *)
    let assignment = if n <= 1 then None else Dswp.Planner.plan cfg in
    let m =
      match assignment with Some a -> List.length a.Dswp.Planner.b_cores | None -> 0
    in
    let role c =
      match assignment with
      | None -> if c = 0 then Role_serial else Role_a (* unreachable beyond core 0 *)
      | Some a ->
        if c = a.Dswp.Planner.a_core && c = a.Dswp.Planner.c_core then Role_ac
        else if c = a.Dswp.Planner.a_core then Role_a
        else if c = a.Dswp.Planner.c_core then Role_c
        else (
          let rec slot i = function
            | [] -> Role_a (* unreachable: every core is assigned *)
            | b :: rest -> if b = c then Role_b i else slot (i + 1) rest
          in
          slot 0 a.Dswp.Planner.b_cores)
    in
    (* Busy intervals per core, straight from the event stream: final runs
       close with Task_finish, mid-run aborts with Task_squash (elapsed
       only).  A squash of an already-finished run finds no open interval
       and adds nothing — its full-length interval is already recorded. *)
    let busy_rev = Array.make n [] in
    let open_runs : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
    let add_interval core s f = if core < n && f > s then busy_rev.(core) <- (s, f) :: busy_rev.(core) in
    List.iter
      (fun e ->
        match e with
        | E.Task_start { time; task; core; _ } -> Hashtbl.replace open_runs task (time, core)
        | E.Task_finish { time; task; core = _ } -> (
          match Hashtbl.find_opt open_runs task with
          | Some (s, c) ->
            Hashtbl.remove open_runs task;
            add_interval c s time
          | None -> ())
        | E.Task_squash { time = _; task; core = _; elapsed } -> (
          match Hashtbl.find_opt open_runs task with
          | Some (s, c) ->
            Hashtbl.remove open_runs task;
            add_interval c s (s + elapsed)
          | None -> ())
        | _ -> ())
      events;
    (* A truncated recording (deadlock trace) may leave runs open. *)
    Hashtbl.iter (fun _ (s, c) -> add_interval c s span) open_runs;
    let busy = Array.map (fun l -> List.sort compare (List.rev l)) busy_rev in
    (* Queue occupancy step functions per direction and slot. *)
    let occ_changes dir =
      let per_slot = Array.make (max m 1) [] in
      List.iter
        (fun e ->
          match e with
          | (E.Queue_push { queue; slot; time; occupancy; _ } | E.Queue_pop { queue; slot; time; occupancy; _ })
            when queue = dir && slot < Array.length per_slot ->
            per_slot.(slot) <- (time, occupancy) :: per_slot.(slot)
          | _ -> ())
        events;
      Array.map (fun l -> step_fn_of_changes (List.rev l)) per_slot
    in
    let in_occ = occ_changes E.In_queue in
    let out_occ = occ_changes E.Out_queue in
    let in_fns = Array.to_list in_occ and out_fns = Array.to_list out_occ in
    (* Commit and delivery times per iteration.  Delivery is when the last
       of the iteration's B results reaches the C core (final finish + one
       hop); an iteration without B tasks is treated as delivered at its
       commit, so none of the wait before it reads as starvation twice. *)
    let commit_t = Array.make (max iters 1) max_int in
    List.iter
      (fun e ->
        match e with
        | E.Iter_commit { time; iteration } when iteration < iters -> commit_t.(iteration) <- time
        | _ -> ())
      events;
    let finish_t = Array.make (Array.length loop.Sim.Input.tasks) (-1) in
    List.iter
      (fun (s : Sim.Sched.sched_entry) -> finish_t.(s.Sim.Sched.s_task) <- s.Sim.Sched.s_finish)
      r.Sim.Sched.schedule;
    let deliver_t = Array.make (max iters 1) max_int in
    Array.iter
      (fun (t : Ir.Task.t) ->
        if t.Ir.Task.phase = Ir.Task.B && finish_t.(t.Ir.Task.id) >= 0 then begin
          let i = t.Ir.Task.iteration in
          let d = finish_t.(t.Ir.Task.id) + lat in
          if deliver_t.(i) = max_int || d > deliver_t.(i) then deliver_t.(i) <- d
        end)
      loop.Sim.Input.tasks;
    for i = 0 to iters - 1 do
      if deliver_t.(i) = max_int then deliver_t.(i) <- commit_t.(i)
    done;
    (* First iteration still uncommitted at time x (commits are in
       iteration order, so the array of commit times is non-decreasing). *)
    let waiting_iter x =
      let rec go i = if i >= iters then None else if commit_t.(i) > x then Some i else go (i + 1) in
      go 0
    in
    let all_in_full vals = vals <> [] && List.for_all (fun v -> v >= cap) vals in
    (* Classify one gap piece starting at x for the given role. *)
    let classify role x =
      match role with
      | Role_serial -> Idle
      | Role_a ->
        if all_in_full (List.map (fun fn -> value_at fn x) in_fns) then Producer_blocked
        else Dep_wait
      | Role_b s ->
        if value_at out_occ.(s) x >= cap then Producer_blocked
        else if value_at in_occ.(s) x = 0 then Consumer_starved
        else Dep_wait
      | Role_c -> (
        match waiting_iter x with
        | Some i when x < deliver_t.(i) -> Consumer_starved
        | Some _ -> Dep_wait
        | None -> Dep_wait)
      | Role_ac -> (
        if all_in_full (List.map (fun fn -> value_at fn x) in_fns) then Producer_blocked
        else
          match waiting_iter x with
          | Some i when x < deliver_t.(i) -> Consumer_starved
          | _ -> Dep_wait)
    in
    (* Change points relevant to a role's classification. *)
    let role_points role g0 g1 =
      let fns =
        match role with
        | Role_serial -> []
        | Role_a -> in_fns
        | Role_b s -> [ in_occ.(s); out_occ.(s) ]
        | Role_c -> []
        | Role_ac -> in_fns
      in
      let iter_pts =
        match role with
        | Role_c | Role_ac ->
          let pts = ref [] in
          for i = 0 to iters - 1 do
            if commit_t.(i) > g0 && commit_t.(i) < g1 then pts := commit_t.(i) :: !pts;
            if deliver_t.(i) > g0 && deliver_t.(i) < g1 && deliver_t.(i) <> max_int then
              pts := deliver_t.(i) :: !pts
          done;
          !pts
        | _ -> []
      in
      List.sort_uniq compare (change_points fns g0 g1 @ iter_pts)
    in
    let classify_gap role g0 g1 =
      let pts = g0 :: role_points role g0 g1 in
      let rec go acc = function
        | [] -> acc
        | x :: rest ->
          let y = match rest with y :: _ -> y | [] -> g1 in
          go ({ t0 = x; t1 = y; cat = classify role x } :: acc) rest
      in
      List.rev (go [] pts)
    in
    (* Merge adjacent segments of equal category so the output is compact. *)
    let coalesce segs =
      List.fold_left
        (fun acc s ->
          match acc with
          | prev :: rest when prev.cat = s.cat && prev.t1 = s.t0 ->
            { prev with t1 = s.t1 } :: rest
          | _ -> if s.t1 > s.t0 then s :: acc else acc)
        [] segs
      |> List.rev
    in
    let line core =
      let role = role core in
      let intervals = busy.(core) in
      let rec walk t = function
        | [] ->
          (* Tail (or a never-used core): idle to the span. *)
          if t < span then [ { t0 = t; t1 = span; cat = Idle } ] else []
        | (s, f) :: rest ->
          (* Clamp against the cursor so tiling survives even a malformed
             (overlapping) recording; the simulator never produces one. *)
          let s = max s t in
          let f = max f s in
          let gap = if s > t then classify_gap role t s else [] in
          gap @ ({ t0 = s; t1 = f; cat = Busy } :: walk f rest)
      in
      { core; segments = coalesce (walk 0 intervals) }
    in
    {
      span;
      cores = Array.init n line;
      in_queues_full = (if m = 0 then 0 else integrate ~span in_fns all_in_full);
      any_in_queue_full =
        (if m = 0 then 0 else integrate ~span in_fns (List.exists (fun v -> v >= cap)));
      any_out_queue_full =
        (if m = 0 then 0 else integrate ~span out_fns (List.exists (fun v -> v >= cap)));
    }
end

module Oracle = struct
  module Sched = Sim.Sched

  exception Bad of Sim.Oracle.violation

  let fail invariant fmt =
    Format.kasprintf (fun detail -> raise (Bad { Sim.Oracle.invariant; detail })) fmt

  let check_core_exclusivity (cfg : Machine.Config.t) (r : Sched.loop_result) =
    let cores = cfg.Machine.Config.cores in
    let by_core = Hashtbl.create 8 in
    List.iter
      (fun (e : Sched.sched_entry) ->
        if e.Sched.s_core < 0 || e.Sched.s_core >= cores then
          fail "core-exclusivity" "task %d scheduled on core %d of a %d-core machine"
            e.Sched.s_task e.Sched.s_core cores;
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_core e.Sched.s_core) in
        Hashtbl.replace by_core e.Sched.s_core
          ((e.Sched.s_start, e.Sched.s_finish, e.Sched.s_task) :: cur))
      r.Sched.schedule;
    Hashtbl.iter
      (fun c intervals ->
        let sorted = List.sort compare intervals in
        let rec walk = function
          | (_, f1, t1) :: ((s2, _, t2) :: _ as rest) ->
            if f1 > s2 then
              fail "core-exclusivity"
                "tasks %d and %d overlap on core %d (finish %d > start %d)" t1 t2 c f1 s2;
            walk rest
          | _ -> ()
        in
        walk sorted)
      by_core

  let core_exclusivity cfg r =
    match check_core_exclusivity cfg r with () -> Ok () | exception Bad v -> Error v

  (* Sim.Oracle.validate checks coverage, then exclusivity.  Once past
     coverage its verdict must be the reference's whenever the reference
     rejects, and must not name core-exclusivity when it accepts. *)
  let validate_agrees cfg ~policy loop r =
    match (Sim.Oracle.validate cfg ~policy loop r, core_exclusivity cfg r) with
    | Error { Sim.Oracle.invariant = "schedule-coverage"; _ }, _ | Ok (), Ok () -> true
    | Error v, Error w -> v = w
    | Error v, Ok () -> v.Sim.Oracle.invariant <> "core-exclusivity"
    | Ok (), Error _ -> false
end
