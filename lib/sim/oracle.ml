type violation = { invariant : string; detail : string }

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
