(* Reference analysis: a stall timeline that rebuilds the queue step
   functions as lists for every idle gap and scans the commits from
   iteration 0 at every gap point, a core-exclusivity check that sorts
   every core's (start, finish, task) tuples with polymorphic compare,
   and verbatim copies of the schedule oracle and the critical-path
   extraction from before their bookkeeping moved onto int arrays.
   All are slower and plainly right; Obs_analysis.Timeline, Sim.Oracle
   and Obs_analysis.Critpath must agree with them exactly
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

module Exclusivity = struct
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

(* Sim.Oracle as it was before its checks moved onto task-indexed
   arrays filled by at most two walks of the schedule, kept verbatim
   (five walks, B-task lists rebuilt per call, polymorphic [max]).
   Sim.Oracle.validate must return the same verdict: [Ok], or the same
   invariant and detail string (test_oracle.ml, test_analysis.ml). *)
module Oracle = struct
  open Sim

  type violation = Sim.Oracle.violation = { invariant : string; detail : string }

  let invariant_names =
    [
      "schedule-coverage";
      "core-exclusivity";
      "dependence-ordering";
      "speculation-accounting";
      "queue-bounds";
      "busy-conservation";
      "commit-order";
    ]

  let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.invariant v.detail

  exception Bad of violation

  let fail invariant fmt = Format.kasprintf (fun detail -> raise (Bad { invariant; detail })) fmt

  (* Per-iteration task structure, mirroring Pipeline.build_iter_views. *)
  let iteration_structure (loop : Input.loop) =
    let iters = Input.iterations loop in
    let a = Array.make iters None and c = Array.make iters None in
    let bs = Array.make iters [] in
    Array.iter
      (fun (t : Ir.Task.t) ->
        let i = t.Ir.Task.iteration in
        match t.Ir.Task.phase with
        | Ir.Task.A -> a.(i) <- Some t.Ir.Task.id
        | Ir.Task.C -> c.(i) <- Some t.Ir.Task.id
        | Ir.Task.B -> bs.(i) <- t.Ir.Task.id :: bs.(i))
      loop.Input.tasks;
    (a, bs, c)

  let check_coverage (loop : Input.loop) (r : Sched.loop_result) =
    let n = Array.length loop.Input.tasks in
    let seen = Array.make n 0 in
    let max_finish = ref 0 in
    List.iter
      (fun (e : Sched.sched_entry) ->
        if e.Sched.s_task < 0 || e.Sched.s_task >= n then
          fail "schedule-coverage" "entry references unknown task %d" e.Sched.s_task;
        seen.(e.Sched.s_task) <- seen.(e.Sched.s_task) + 1;
        let work = loop.Input.tasks.(e.Sched.s_task).Ir.Task.work in
        if e.Sched.s_start < 0 then
          fail "schedule-coverage" "task %d starts at %d < 0" e.Sched.s_task e.Sched.s_start;
        if e.Sched.s_finish - e.Sched.s_start <> work then
          fail "schedule-coverage" "task %d interval [%d, %d) does not match its work %d"
            e.Sched.s_task e.Sched.s_start e.Sched.s_finish work;
        if e.Sched.s_finish > !max_finish then max_finish := e.Sched.s_finish)
      r.Sched.schedule;
    Array.iteri
      (fun tid count ->
        if count <> 1 then
          fail "schedule-coverage" "task %d appears %d times in the schedule" tid count)
      seen;
    if n > 0 && !max_finish <> r.Sched.span then
      fail "schedule-coverage" "span %d but latest finish is %d" r.Sched.span !max_finish

  (* Start/finish arrays indexed by task id; coverage has already been
     established. *)
  let interval_arrays (loop : Input.loop) (r : Sched.loop_result) =
    let n = Array.length loop.Input.tasks in
    let start = Array.make n 0 and finish = Array.make n 0 and core = Array.make n 0 in
    List.iter
      (fun (e : Sched.sched_entry) ->
        start.(e.Sched.s_task) <- e.Sched.s_start;
        finish.(e.Sched.s_task) <- e.Sched.s_finish;
        core.(e.Sched.s_task) <- e.Sched.s_core)
      r.Sched.schedule;
    (start, finish, core)

  (* Entries are bucketed per core into int arrays, with every core index
     range-checked first, in schedule order.  Sorted by (start, finish,
     task), a core's intervals overlap iff two neighbours do, and the first
     such pair is reported.  The simulator lists the schedule in completion
     order, which is start order on one core, so a core is sorted only when
     its entries arrive out of that order.  Cores are visited in the
     iteration order of a hash table filled in first-use order, which picks
     the reported core when several overlap. *)
  let check_core_exclusivity (cfg : Machine.Config.t) (r : Sched.loop_result) =
    let cores = cfg.Machine.Config.cores in
    let count = Array.make cores 0 in
    let visit = Hashtbl.create 8 in
    List.iter
      (fun (e : Sched.sched_entry) ->
        let c = e.Sched.s_core in
        if c < 0 || c >= cores then
          fail "core-exclusivity" "task %d scheduled on core %d of a %d-core machine"
            e.Sched.s_task c cores;
        if count.(c) = 0 then Hashtbl.replace visit c ();
        count.(c) <- count.(c) + 1)
      r.Sched.schedule;
    (* Core c's entries occupy [first.(c), first.(c + 1)). *)
    let first = Array.make (cores + 1) 0 in
    for c = 0 to cores - 1 do
      first.(c + 1) <- first.(c) + count.(c)
    done;
    let n = first.(cores) in
    let start = Array.make n 0 and finish = Array.make n 0 and task = Array.make n 0 in
    let next = Array.sub first 0 cores in
    List.iter
      (fun (e : Sched.sched_entry) ->
        let k = next.(e.Sched.s_core) in
        next.(e.Sched.s_core) <- k + 1;
        start.(k) <- e.Sched.s_start;
        finish.(k) <- e.Sched.s_finish;
        task.(k) <- e.Sched.s_task)
      r.Sched.schedule;
    let before k l =
      start.(k) < start.(l)
      || (start.(k) = start.(l)
         && (finish.(k) < finish.(l) || (finish.(k) = finish.(l) && task.(k) < task.(l))))
    in
    Hashtbl.iter
      (fun c () ->
        let lo = first.(c) and hi = first.(c + 1) in
        let sorted = ref true in
        for k = lo + 1 to hi - 1 do
          if before k (k - 1) then sorted := false
        done;
        if not !sorted then begin
          let entries =
            Array.init (hi - lo) (fun k -> (start.(lo + k), finish.(lo + k), task.(lo + k)))
          in
          Array.sort compare entries;
          Array.iteri
            (fun k (s, f, t) ->
              start.(lo + k) <- s;
              finish.(lo + k) <- f;
              task.(lo + k) <- t)
            entries
        end;
        for k = lo to hi - 2 do
          if finish.(k) > start.(k + 1) then
            fail "core-exclusivity" "tasks %d and %d overlap on core %d (finish %d > start %d)"
              task.(k) task.(k + 1) c finish.(k) start.(k + 1)
        done)
      visit

  (* The start-time floor one edge imposes on its consumer under the final
     schedule.  Mirrors Pipeline.constraint_of. *)
  let edge_requirement (policy : Sched.policy) lat start finish (e : Input.edge) =
    if policy.Sched.forwarding then
      max 0 (start.(e.Input.src) + e.Input.src_offset + lat - e.Input.dst_offset)
    else finish.(e.Input.src) + lat

  (* Structural pipeline ordering: the A chain, A_i before the B tasks it
     dispatched (plus one queue hop), every B of an iteration delivered
     (plus one hop) before C_i, and the C chain.  These hold under every
     policy: A and C tasks are never squashed, and an iteration's B finish
     times are final by the time C commits it. *)
  let check_structural (cfg : Machine.Config.t) (a, bs, c) start finish =
    let lat = cfg.Machine.Config.comm_latency in
    let iters = Array.length a in
    let last_a = ref None and last_c = ref None in
    for i = 0 to iters - 1 do
      (match (!last_a, a.(i)) with
      | Some p, Some q ->
        if start.(q) < finish.(p) then
          fail "dependence-ordering" "A task %d (iteration %d) starts at %d before A task %d finishes at %d"
            q i start.(q) p finish.(p)
      | _ -> ());
      (match a.(i) with Some _ as x -> last_a := x | None -> ());
      (match a.(i) with
      | Some ai ->
        List.iter
          (fun b ->
            if start.(b) < finish.(ai) + lat then
              fail "dependence-ordering"
                "B task %d starts at %d before its A task %d is delivered (finish %d + latency %d)"
                b start.(b) ai finish.(ai) lat)
          bs.(i)
      | None -> ());
      match c.(i) with
      | Some ci ->
        List.iter
          (fun b ->
            if start.(ci) < finish.(b) + lat then
              fail "dependence-ordering"
                "C task %d starts at %d before B task %d is delivered (finish %d + latency %d)"
                ci start.(ci) b finish.(b) lat)
          bs.(i);
        (match !last_c with
        | Some p ->
          if start.(ci) < finish.(p) then
            fail "dependence-ordering" "C task %d starts at %d before C task %d finishes at %d"
              ci start.(ci) p finish.(p)
        | None -> ());
        last_c := Some ci
      | None -> ()
    done

  (* Explicit synchronized / speculated edges.  Sound exactly when the
     recorded start and finish times are the times the consumer actually
     observed: under Serialize nothing ever re-executes, and under Squash a
     zero squash count means the same.  With squashes > 0 a producer may
     have re-executed after an already-committed consumer sampled it, so
     the final times cannot be compared edge-wise. *)
  let check_edges (cfg : Machine.Config.t) (policy : Sched.policy) (loop : Input.loop)
      (r : Sched.loop_result) start finish =
    let lat = cfg.Machine.Config.comm_latency in
    let serialize = policy.Sched.misspec = Sched.Serialize in
    if serialize || r.Sched.squashes = 0 then
      List.iter
        (fun (e : Input.edge) ->
          (* Speculated edges only gate the consumer under Serialize; under
             Squash an early consumer is squashed rather than delayed, and
             with zero squashes we can only conclude the sync edges held. *)
          if (not e.Input.speculated) || serialize then begin
            let req = edge_requirement policy lat start finish e in
            if start.(e.Input.dst) < req then
              fail "dependence-ordering"
                "%s edge %d -> %d violated: consumer starts at %d, needs >= %d"
                (if e.Input.speculated then "speculated" else "synchronized")
                e.Input.src e.Input.dst
                start.(e.Input.dst) req
          end)
        loop.Input.edges

  let check_speculation_accounting (cfg : Machine.Config.t) (policy : Sched.policy)
      (loop : Input.loop) (r : Sched.loop_result) start finish =
    let lat = cfg.Machine.Config.comm_latency in
    let n = Array.length loop.Input.tasks in
    if r.Sched.misspec_delayed < 0 then
      fail "speculation-accounting" "negative misspec_delayed %d" r.Sched.misspec_delayed;
    if r.Sched.squashes < 0 then
      fail "speculation-accounting" "negative squash count %d" r.Sched.squashes;
    match policy.Sched.misspec with
    | Sched.Serialize ->
      if r.Sched.squashes <> 0 then
        fail "speculation-accounting" "%d squashes under the Serialize policy" r.Sched.squashes;
      (* A task counted as misspec-delayed had its readiness pushed past
         every synchronized constraint by a speculated in-edge: its maximal
         speculated-edge requirement strictly exceeds its maximal
         synchronized one, and its start honours it.  (The start can sit
         later than the requirement — the task may additionally have waited
         on a core or a queue slot — so equality cannot be demanded.)
         Recount the candidates from the final schedule; the counter can
         never exceed them, and is exactly zero with no speculated edges. *)
      let spec_req = Array.make n (-1) and sync_req = Array.make n 0 in
      List.iter
        (fun (e : Input.edge) ->
          let req = edge_requirement policy lat start finish e in
          if e.Input.speculated then spec_req.(e.Input.dst) <- max spec_req.(e.Input.dst) req
          else sync_req.(e.Input.dst) <- max sync_req.(e.Input.dst) req)
        loop.Input.edges;
      let candidates = ref 0 in
      for t = 0 to n - 1 do
        if spec_req.(t) >= 0 && spec_req.(t) > sync_req.(t) && start.(t) >= spec_req.(t) then
          incr candidates
      done;
      if r.Sched.misspec_delayed > !candidates then
        fail "speculation-accounting"
          "misspec_delayed = %d but only %d tasks are gated by a dominating speculated edge"
          r.Sched.misspec_delayed !candidates;
      if (not (List.exists (fun (e : Input.edge) -> e.Input.speculated) loop.Input.edges))
         && r.Sched.misspec_delayed <> 0
      then
        fail "speculation-accounting" "misspec_delayed = %d with no speculated edges"
          r.Sched.misspec_delayed
    | Sched.Squash ->
      (* Every delay is charged at some task start, and there are at most
         ntasks + squashes starts in the whole run. *)
      if r.Sched.misspec_delayed > n + r.Sched.squashes then
        fail "speculation-accounting" "misspec_delayed = %d exceeds the %d task starts"
          r.Sched.misspec_delayed (n + r.Sched.squashes)

  let check_queue_bounds (cfg : Machine.Config.t) (loop : Input.loop) (r : Sched.loop_result) =
    let cap = cfg.Machine.Config.queue_capacity in
    (* A squash re-inserts the task at the head of its in-queue without
       re-running the capacity check (it reclaims the slot it issued from),
       so each squash can push occupancy at most one past the bound; fresh
       dispatches from phase A always respect it. *)
    let in_cap = if r.Sched.squashes > 0 then cap + r.Sched.squashes else cap in
    if r.Sched.in_queue_high_water < 0 || r.Sched.in_queue_high_water > in_cap then
      fail "queue-bounds" "in-queue high water %d outside [0, %d]" r.Sched.in_queue_high_water
        in_cap;
    if r.Sched.out_queue_high_water < 0 || r.Sched.out_queue_high_water > cap then
      fail "queue-bounds" "out-queue high water %d outside [0, %d]" r.Sched.out_queue_high_water
        cap;
    let m = Dswp.Planner.b_core_count cfg in
    if Array.length r.Sched.b_tasks_per_core <> m then
      fail "queue-bounds" "b_tasks_per_core has %d slots for %d B cores"
        (Array.length r.Sched.b_tasks_per_core)
        m;
    if r.Sched.squashes = 0 then begin
      let b_tasks =
        Array.fold_left
          (fun acc (t : Ir.Task.t) -> if t.Ir.Task.phase = Ir.Task.B then acc + 1 else acc)
          0 loop.Input.tasks
      in
      let executed = Array.fold_left ( + ) 0 r.Sched.b_tasks_per_core in
      if executed <> b_tasks then
        fail "queue-bounds" "B cores executed %d tasks; the loop has %d B tasks" executed b_tasks
    end

  let check_busy (cfg : Machine.Config.t) (loop : Input.loop) (r : Sched.loop_result) =
    let cores = cfg.Machine.Config.cores in
    if Array.length r.Sched.busy <> cores then
      fail "busy-conservation" "busy array has %d slots for %d cores"
        (Array.length r.Sched.busy) cores;
    let per_core = Array.make cores 0 in
    List.iter
      (fun (e : Sched.sched_entry) ->
        per_core.(e.Sched.s_core) <- per_core.(e.Sched.s_core) + (e.Sched.s_finish - e.Sched.s_start))
      r.Sched.schedule;
    for c = 0 to cores - 1 do
      if r.Sched.squashes = 0 then begin
        if r.Sched.busy.(c) <> per_core.(c) then
          fail "busy-conservation" "core %d busy %d but its intervals sum to %d" c
            r.Sched.busy.(c) per_core.(c)
      end
      else if r.Sched.busy.(c) < per_core.(c) then
        fail "busy-conservation" "core %d busy %d below its final intervals' sum %d" c
          r.Sched.busy.(c) per_core.(c);
      (* Busy charges only time a core actually spent occupied (aborted runs
         count their elapsed portion, not their full work), and a core is
         occupied by at most one task at a time, so busy can never exceed
         the loop's span. *)
      if r.Sched.busy.(c) > r.Sched.span then
        fail "busy-conservation" "core %d busy %d exceeds span %d" c r.Sched.busy.(c)
          r.Sched.span
    done;
    let total = Array.fold_left ( + ) 0 r.Sched.busy in
    let work = Input.loop_work loop in
    if r.Sched.squashes = 0 && total <> work then
      fail "busy-conservation" "total busy %d does not equal loop work %d" total work;
    if total < work then
      fail "busy-conservation" "total busy %d below loop work %d" total work

  let check_commit_order (_, _, c) start =
    let last = ref None in
    Array.iteri
      (fun i ci ->
        match ci with
        | None -> ()
        | Some ci ->
          (match !last with
          | Some (j, cj) ->
            if start.(ci) < start.(cj) then
              fail "commit-order"
                "iteration %d commits (C start %d) before iteration %d (C start %d)" i
                start.(ci) j start.(cj)
          | None -> ());
          last := Some (i, ci))
      c

  (* A 0/1-core machine executes the loop serially in task order; edges and
     latency do not apply, so only coverage, exclusivity and conservation
     are meaningful. *)
  let validate_serial (cfg : Machine.Config.t) (loop : Input.loop) (r : Sched.loop_result) =
    check_coverage loop r;
    check_core_exclusivity cfg r;
    let work = Input.loop_work loop in
    if r.Sched.span <> work then
      fail "busy-conservation" "serial span %d does not equal loop work %d" r.Sched.span work;
    let total = Array.fold_left ( + ) 0 r.Sched.busy in
    if total <> work then
      fail "busy-conservation" "serial busy %d does not equal loop work %d" total work

  let validate (cfg : Machine.Config.t) ?(policy = Sched.default_policy) (loop : Input.loop)
      (r : Sched.loop_result) =
    try
      if cfg.Machine.Config.cores <= 1 || Array.length loop.Input.tasks = 0 then
        validate_serial cfg loop r
      else begin
        check_coverage loop r;
        let start, finish, _core = interval_arrays loop r in
        check_core_exclusivity cfg r;
        let structure = iteration_structure loop in
        check_structural cfg structure start finish;
        check_edges cfg policy loop r start finish;
        check_speculation_accounting cfg policy loop r start finish;
        check_queue_bounds cfg loop r;
        check_busy cfg loop r;
        check_commit_order structure start
      end;
      Ok ()
    with Bad v -> Error v

  let validate_exn cfg ?policy loop r =
    match validate cfg ?policy loop r with
    | Ok () -> ()
    | Error v ->
      failwith
        (Format.asprintf "Sim.Oracle: loop %s violates %s (%s)" loop.Input.name v.invariant
           v.detail)
end

(* Obs_analysis.Critpath.extract as it was before its lookups moved
   onto time-sorted indexes, kept verbatim: tuple-keyed tables over
   every task, and a [fallback] that scans every task and squashed
   attempt on each call.  Critpath.extract must return the same path
   (test_obs_prop.ml, test_analysis.ml). *)
module Critpath = struct
  module E = Obs.Event

  type edge_kind = Obs_analysis.Critpath.edge_kind =
    | Same_core
    | Queue_hop
    | Backpressure
    | Sync_dep
    | Spec_serialize
    | Squash_rerun
    | Wait

  let edge_kind_name = function
    | Same_core -> "same_core"
    | Queue_hop -> "queue_hop"
    | Backpressure -> "backpressure"
    | Sync_dep -> "sync_dep"
    | Spec_serialize -> "spec_serialize"
    | Squash_rerun -> "squash_rerun"
    | Wait -> "wait"

  let edge_kinds = [ Same_core; Queue_hop; Backpressure; Sync_dep; Spec_serialize; Squash_rerun; Wait ]

  type step = Obs_analysis.Critpath.step =
    | Exec of { task : int; core : int; phase : char; iteration : int; t0 : int; t1 : int }
    | Edge of { kind : edge_kind; t0 : int; t1 : int }

  type t = Obs_analysis.Critpath.t = { span : int; steps : step list }

  let phase_letter = function Ir.Task.A -> 'A' | Ir.Task.B -> 'B' | Ir.Task.C -> 'C'

  (* What the backward walk decides at each task start. *)
  type justification =
    | Producer of edge_kind * int * int  (* edge kind, producer task, anchor (producer cut) *)
    | Hop of edge_kind * int * int  (* edge kind, task whose *start* freed us, its start *)
    | Attempt of int * int  (* squashed attempt of task, attempt start (ends at [s]) *)
    | Fallback of int option * int  (* interval task (None: attempt-less wait), its end < s *)
    | Root

  let extract (cfg : Machine.Config.t) ?(policy = Sim.Sched.default_policy)
      (loop : Sim.Input.loop) (r : Sim.Sched.loop_result) events =
    let span = r.Sim.Sched.span in
    if span <= 0 then { span; steps = [] }
    else begin
      let lat = cfg.Machine.Config.comm_latency in
      let tasks = loop.Sim.Input.tasks in
      let nt = Array.length tasks in
      let start = Array.make nt (-1) in
      let finish = Array.make nt (-1) in
      let core_of = Array.make nt (-1) in
      List.iter
        (fun (s : Sim.Sched.sched_entry) ->
          start.(s.Sim.Sched.s_task) <- s.Sim.Sched.s_start;
          finish.(s.Sim.Sched.s_task) <- s.Sim.Sched.s_finish;
          core_of.(s.Sim.Sched.s_task) <- s.Sim.Sched.s_core)
        r.Sim.Sched.schedule;
      (* Iteration structure. *)
      let iters = Sim.Input.iterations loop in
      let a_of = Array.make (max iters 1) (-1) in
      let bs_of = Array.make (max iters 1) [] in
      Array.iter
        (fun (t : Ir.Task.t) ->
          let i = t.Ir.Task.iteration in
          match t.Ir.Task.phase with
          | Ir.Task.A -> a_of.(i) <- t.Ir.Task.id
          | Ir.Task.B -> bs_of.(i) <- t.Ir.Task.id :: bs_of.(i)
          | Ir.Task.C -> ())
        tasks;
      let in_edges = Array.make nt [] in
      List.iter
        (fun (e : Sim.Input.edge) -> in_edges.(e.Sim.Input.dst) <- e :: in_edges.(e.Sim.Input.dst))
        loop.Sim.Input.edges;
      let gating (e : Sim.Input.edge) =
        (not e.Sim.Input.speculated) || policy.Sim.Sched.misspec = Sim.Sched.Serialize
      in
      (* Event-derived lookups: dispatch time and slot per B task, squash
         flags, squashed-attempt intervals, out-queue pop times. *)
      let dispatch_t = Array.make nt (-1) in
      let slot_of = Array.make nt (-1) in
      let squashed = Array.make nt false in
      let open_runs : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
      (* (core, end time) -> (task, attempt start) for aborted runs. *)
      let attempts_end : (int * int, int * int) Hashtbl.t = Hashtbl.create 16 in
      let attempt_ends = ref [] in
      let out_pops : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match e with
          | E.Dispatch { time; task; slot } ->
            if task < nt && dispatch_t.(task) < 0 then begin
              dispatch_t.(task) <- time;
              slot_of.(task) <- slot
            end
          | E.Task_start { time; task; core; _ } -> Hashtbl.replace open_runs task (time, core)
          | E.Task_finish { task; _ } -> Hashtbl.remove open_runs task
          | E.Task_squash { time = _; task; core; elapsed } ->
            if task < nt then squashed.(task) <- true;
            (match Hashtbl.find_opt open_runs task with
            | Some (s, c) when c = core ->
              Hashtbl.remove open_runs task;
              Hashtbl.replace attempts_end (core, s + elapsed) (task, s);
              attempt_ends := (s + elapsed, task, s) :: !attempt_ends
            | _ -> ())
          | E.Queue_pop { queue = E.Out_queue; slot; time; _ } ->
            Hashtbl.replace out_pops (slot, time) ()
          | _ -> ())
        events;
      (* Tasks starting / finishing at a given instant. *)
      let starters_at : (int, int) Hashtbl.t = Hashtbl.create 256 in
      let finishes_on : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
      for tid = nt - 1 downto 0 do
        if start.(tid) >= 0 then begin
          Hashtbl.add starters_at start.(tid) tid;
          (* add (not replace): prefer the latest-added (lowest id) only as
             a tiebreak; all candidates are filtered by visited flags. *)
          Hashtbl.add finishes_on (core_of.(tid), finish.(tid)) tid
        end
      done;
      let visited_exec = Array.make nt false in
      let visited_hop = Array.make nt false in
      let visited_attempt : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      (* Constraint one in-edge puts on its consumer, mirroring the
         simulator's [constraint_of]. *)
      let edge_constraint (e : Sim.Input.edge) =
        let p = e.Sim.Input.src in
        if p >= nt || start.(p) < 0 then None
        else if policy.Sim.Sched.forwarding then
          Some (max 0 (start.(p) + e.Sim.Input.src_offset + lat - e.Sim.Input.dst_offset))
        else Some (finish.(p) + lat)
      in
      let find_first f l = List.find_opt f l in
      let justify_of tid s =
        let iter = tasks.(tid).Ir.Task.iteration in
        let phase = tasks.(tid).Ir.Task.phase in
        (* 1. squash re-execution: the speculated producer whose finish
           set [min_restart]. *)
        let c1 =
          if not squashed.(tid) then None
          else
            find_first
              (fun (e : Sim.Input.edge) ->
                e.Sim.Input.speculated && gating e
                && e.Sim.Input.src < nt
                && finish.(e.Sim.Input.src) >= 0
                && finish.(e.Sim.Input.src) + lat = s
                && not visited_exec.(e.Sim.Input.src))
              in_edges.(tid)
            |> Option.map (fun (e : Sim.Input.edge) ->
                   Producer (Squash_rerun, e.Sim.Input.src, finish.(e.Sim.Input.src)))
        in
        (* 2. an explicit dependence edge achieving the start exactly. *)
        let c2 () =
          find_first
            (fun (e : Sim.Input.edge) ->
              gating e && edge_constraint e = Some s && not visited_exec.(e.Sim.Input.src))
            in_edges.(tid)
          |> Option.map (fun (e : Sim.Input.edge) ->
                 let p = e.Sim.Input.src in
                 let kind = if e.Sim.Input.speculated then Spec_serialize else Sync_dep in
                 Producer (kind, p, min s finish.(p)))
        in
        (* 3. C start gated by the iteration's delivery: last B result (or
           the dispatch token when the iteration has no B tasks) plus one
           hop. *)
        let c3 () =
          if phase <> Ir.Task.C then None
          else
            let from_b =
              find_first
                (fun b -> finish.(b) >= 0 && finish.(b) + lat = s && not visited_exec.(b))
                bs_of.(iter)
              |> Option.map (fun b -> Producer (Queue_hop, b, finish.(b)))
            in
            match from_b with
            | Some _ -> from_b
            | None ->
              let a = if iter < Array.length a_of then a_of.(iter) else -1 in
              if a >= 0 && finish.(a) >= 0 && finish.(a) + lat = s && not visited_exec.(a) then
                Some (Producer (Queue_hop, a, finish.(a)))
              else None
        in
        (* 4. B start at queue arrival: dispatch + one hop.  The dispatch
           itself happened either right at the iteration's A finish (clean
           hand-off) or when another B start freed an in-queue slot
           (backpressure). *)
        let c4 () =
          if phase <> Ir.Task.B || dispatch_t.(tid) < 0 || dispatch_t.(tid) + lat <> s then None
          else begin
            let d = dispatch_t.(tid) in
            let a = if iter < Array.length a_of then a_of.(iter) else -1 in
            if a >= 0 && finish.(a) = d && not visited_exec.(a) then
              Some (Producer (Queue_hop, a, finish.(a)))
            else
              Hashtbl.find_all starters_at d
              |> find_first (fun b' -> b' <> tid && not visited_hop.(b') && not visited_exec.(b'))
              |> Option.map (fun b' -> Hop (Backpressure, b', d))
          end
        in
        (* 5. B start released by its out-queue draining (a commit popped
           the slot at exactly this instant); follow whichever task
           started with the commit. *)
        let c5 () =
          if phase <> Ir.Task.B || slot_of.(tid) < 0 || not (Hashtbl.mem out_pops (slot_of.(tid), s))
          then None
          else
            Hashtbl.find_all starters_at s
            |> find_first (fun c' -> c' <> tid && not visited_hop.(c') && not visited_exec.(c'))
            |> Option.map (fun c' -> Hop (Backpressure, c', s))
        in
        (* 6. the same core's previous execution ending exactly here. *)
        let c6 () =
          Hashtbl.find_all finishes_on (core_of.(tid), s)
          |> find_first (fun q -> q <> tid && not visited_exec.(q))
          |> Option.map (fun q -> Producer (Same_core, q, s))
        in
        (* 7. a squashed attempt on the same core ending exactly here. *)
        let c7 () =
          match Hashtbl.find_opt attempts_end (core_of.(tid), s) with
          | Some (x, a_start) when not (Hashtbl.mem visited_attempt (x, a_start)) ->
            Some (Attempt (x, a_start))
          | _ -> None
        in
        let ( <|> ) a b = match a with Some _ -> a | None -> b () in
        c1 <|> c2 <|> c3 <|> c4 <|> c5 <|> c6 <|> c7
      in
      (* Fallback: the latest execution (final or attempt) ending strictly
         before [s]; covers anything the exact-match candidates miss so
         the tiling never breaks. *)
      let fallback s =
        let best = ref None in
        for tid = 0 to nt - 1 do
          if start.(tid) >= 0 && finish.(tid) < s && not visited_exec.(tid) then
            match !best with
            | Some (f, _) when f >= finish.(tid) -> ()
            | _ -> best := Some (finish.(tid), Some tid)
        done;
        List.iter
          (fun (e, x, a_start) ->
            if e < s && not (Hashtbl.mem visited_attempt (x, a_start)) then
              match !best with Some (f, _) when f >= e -> () | _ -> best := Some (e, None))
          !attempt_ends;
        match !best with Some (f, who) -> Fallback (who, f) | None -> Root
      in
      let steps = ref [] in
      let push s = steps := s :: !steps in
      let push_edge kind t0 t1 = if t1 > t0 then push (Edge { kind; t0; t1 }) in
      let exec_step tid t0 t1 =
        push
          (Exec
             {
               task = tid;
               core = core_of.(tid);
               phase = phase_letter tasks.(tid).Ir.Task.phase;
               iteration = tasks.(tid).Ir.Task.iteration;
               t0;
               t1;
             })
      in
      (* Backward walk; every branch tail-calls, so depth is O(1) stack. *)
      let rec justify tid s =
        if s > 0 then begin
          match justify_of tid s with
          | Some (Producer (kind, p, anchor)) ->
            push_edge kind anchor s;
            visited_exec.(p) <- true;
            exec_step p start.(p) anchor;
            justify p start.(p)
          | Some (Hop (kind, p, p_start)) ->
            push_edge kind p_start s;
            visited_hop.(p) <- true;
            justify p p_start
          | Some (Attempt (x, a_start)) ->
            Hashtbl.replace visited_attempt (x, a_start) ();
            push
              (Exec
                 {
                   task = x;
                   core = core_of.(tid);
                   phase = phase_letter tasks.(x).Ir.Task.phase;
                   iteration = tasks.(x).Ir.Task.iteration;
                   t0 = a_start;
                   t1 = s;
                 });
            justify x a_start
          | Some (Fallback _) | Some Root | None -> resolve_fallback s
        end
      and resolve_fallback s =
        match fallback s with
        | Fallback (Some p, f) ->
          push_edge Wait f s;
          visited_exec.(p) <- true;
          exec_step p start.(p) f;
          justify p start.(p)
        | Fallback (None, f) ->
          (* An attempt interval ends at [f]; re-enter the exact-match
             machinery from there via a Wait edge. *)
          push_edge Wait f s;
          resolve_attempt f
        | _ -> push_edge Wait 0 s
      and resolve_attempt f =
        (* Find the attempt ending at [f] and consume it. *)
        let found = List.find_opt (fun (e, x, a) -> e = f && not (Hashtbl.mem visited_attempt (x, a))) !attempt_ends in
        match found with
        | Some (_, x, a_start) ->
          Hashtbl.replace visited_attempt (x, a_start) ();
          push
            (Exec
               {
                 task = x;
                 core = core_of.(x);
                 phase = phase_letter tasks.(x).Ir.Task.phase;
                 iteration = tasks.(x).Ir.Task.iteration;
                 t0 = a_start;
                 t1 = f;
               });
          justify x a_start
        | None -> push_edge Wait 0 f
      in
      (* Seed: the task whose finish is the span. *)
      let rec find_end tid best =
        if tid >= nt then best
        else
          let best =
            if start.(tid) >= 0 && finish.(tid) = span && not visited_exec.(tid) then Some tid
            else best
          in
          find_end (tid + 1) best
      in
      (match find_end 0 None with
      | Some tid ->
        visited_exec.(tid) <- true;
        exec_step tid start.(tid) span;
        justify tid start.(tid)
      | None -> push_edge Wait 0 span);
      { span; steps = !steps }
    end
end
