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

(* What one walk of the schedule, in list order, records for the checks.
   Per task: how often it appears, its start and finish.  Per core (in
   range): its entry count, busy sum and last entry; whether its entries
   arrive in (start, finish, task) order; and, for such a core, its first
   overlapping pair of neighbours.  [first_use] lists the cores in the
   order of their first entry. *)
type walk = {
  seen : int array;
  start : int array;
  finish : int array;
  max_finish : int;
  bad_entry : (int * int) option;  (* task and core of the first out-of-range core *)
  count : int array;
  per_core : int array;
  in_order : bool array;
  overlap : int array;  (* per core: task, task, finish, start; task -1 if none *)
  first_use : int array;
  used : int;
}

(* Coverage's per-entry conditions fail at the first offending entry, as
   in a walk that checks nothing else. *)
let walk_schedule ~cores (loop : Input.loop) (r : Sched.loop_result) =
  let n = Array.length loop.Input.tasks in
  let seen = Array.make n 0 and start = Array.make n 0 and finish = Array.make n 0 in
  let max_finish = ref 0 and bad_entry = ref None in
  let count = Array.make cores 0 and per_core = Array.make cores 0 in
  let in_order = Array.make cores true in
  let last_s = Array.make cores 0 and last_f = Array.make cores 0 in
  let last_t = Array.make cores 0 in
  let overlap = Array.make (4 * cores) (-1) in
  let first_use = Array.make cores 0 and used = ref 0 in
  List.iter
    (fun (e : Sched.sched_entry) ->
      let tid = e.Sched.s_task and s = e.Sched.s_start and f = e.Sched.s_finish in
      if tid < 0 || tid >= n then fail "schedule-coverage" "entry references unknown task %d" tid;
      seen.(tid) <- seen.(tid) + 1;
      let work = loop.Input.tasks.(tid).Ir.Task.work in
      if s < 0 then fail "schedule-coverage" "task %d starts at %d < 0" tid s;
      if f - s <> work then
        fail "schedule-coverage" "task %d interval [%d, %d) does not match its work %d" tid s f
          work;
      if f > !max_finish then max_finish := f;
      start.(tid) <- s;
      finish.(tid) <- f;
      let c = e.Sched.s_core in
      if c < 0 || c >= cores then (if Option.is_none !bad_entry then bad_entry := Some (tid, c))
      else begin
        if count.(c) = 0 then begin
          first_use.(!used) <- c;
          incr used
        end
        else if
          s < last_s.(c)
          || (s = last_s.(c) && (f < last_f.(c) || (f = last_f.(c) && tid < last_t.(c))))
        then in_order.(c) <- false
        else if overlap.(4 * c) < 0 && last_f.(c) > s then begin
          overlap.(4 * c) <- last_t.(c);
          overlap.((4 * c) + 1) <- tid;
          overlap.((4 * c) + 2) <- last_f.(c);
          overlap.((4 * c) + 3) <- s
        end;
        count.(c) <- count.(c) + 1;
        per_core.(c) <- per_core.(c) + (f - s);
        last_s.(c) <- s;
        last_f.(c) <- f;
        last_t.(c) <- tid
      end)
    r.Sched.schedule;
  {
    seen;
    start;
    finish;
    max_finish = !max_finish;
    bad_entry = !bad_entry;
    count;
    per_core;
    in_order;
    overlap;
    first_use;
    used = !used;
  }

let check_coverage (loop : Input.loop) (r : Sched.loop_result) w =
  Array.iteri
    (fun tid count ->
      if count <> 1 then
        fail "schedule-coverage" "task %d appears %d times in the schedule" tid count)
    w.seen;
  if Array.length loop.Input.tasks > 0 && w.max_finish <> r.Sched.span then
    fail "schedule-coverage" "span %d but latest finish is %d" r.Sched.span w.max_finish

let by_start (s1, f1, t1) (s2, f2, t2) =
  if s1 <> s2 then Int.compare s1 s2 else if f1 <> f2 then Int.compare f1 f2 else Int.compare t1 t2

(* Every core index is range-checked first, in schedule order.  Sorted by
   (start, finish, task), a core's intervals overlap iff two neighbours
   do, and the first such pair is reported.  The simulator lists the
   schedule in completion order, which is start order on one core, so
   the walk has already found each in-order core's first overlap; only a
   core whose entries arrive out of that order is collected by a second
   walk and sorted.  Cores are visited in the iteration order of a hash
   table filled in first-use order, which picks the reported core when
   several overlap. *)
let check_core_exclusivity ~cores (r : Sched.loop_result) w =
  (match w.bad_entry with
  | Some (tid, c) ->
    fail "core-exclusivity" "task %d scheduled on core %d of a %d-core machine" tid c cores
  | None -> ());
  let clean = ref true in
  for k = 0 to w.used - 1 do
    let c = w.first_use.(k) in
    if w.overlap.(4 * c) >= 0 || not w.in_order.(c) then clean := false
  done;
  if not !clean then begin
    let sorted = Array.make cores [||] in
    let fill = Array.make cores 0 in
    for k = 0 to w.used - 1 do
      let c = w.first_use.(k) in
      if not w.in_order.(c) then sorted.(c) <- Array.make w.count.(c) (0, 0, 0)
    done;
    List.iter
      (fun (e : Sched.sched_entry) ->
        let c = e.Sched.s_core in
        if not w.in_order.(c) then begin
          sorted.(c).(fill.(c)) <- (e.Sched.s_start, e.Sched.s_finish, e.Sched.s_task);
          fill.(c) <- fill.(c) + 1
        end)
      r.Sched.schedule;
    let visit = Hashtbl.create 8 in
    for k = 0 to w.used - 1 do
      Hashtbl.replace visit w.first_use.(k) ()
    done;
    Hashtbl.iter
      (fun c () ->
        if w.in_order.(c) then begin
          let o = 4 * c in
          if w.overlap.(o) >= 0 then
            fail "core-exclusivity" "tasks %d and %d overlap on core %d (finish %d > start %d)"
              w.overlap.(o) w.overlap.(o + 1) c w.overlap.(o + 2) w.overlap.(o + 3)
        end
        else begin
          let es = sorted.(c) in
          Array.sort by_start es;
          for k = 0 to Array.length es - 2 do
            let _, f1, t1 = es.(k) and s2, _, t2 = es.(k + 1) in
            if f1 > s2 then
              fail "core-exclusivity" "tasks %d and %d overlap on core %d (finish %d > start %d)"
                t1 t2 c f1 s2
          done
        end)
      visit
  end

(* The start-time floor edge [e] imposes on its consumer under the final
   schedule.  Mirrors Pipeline.constraint_of. *)
let edge_requirement (policy : Sched.policy) lat (ix : Input.index) start finish e =
  let src = ix.Input.e_src.(e) in
  if policy.Sched.forwarding then
    Int.max 0 (start.(src) + ix.Input.e_soff.(e) + lat - ix.Input.e_doff.(e))
  else finish.(src) + lat

(* Structural pipeline ordering: the A chain, A_i before the B tasks it
   dispatched (plus one queue hop), every B of an iteration delivered
   (plus one hop) before C_i, and the C chain.  These hold under every
   policy: A and C tasks are never squashed, and an iteration's B finish
   times are final by the time C commits it. *)
let check_structural (cfg : Machine.Config.t) (ix : Input.index) start finish =
  let lat = cfg.Machine.Config.comm_latency in
  let last_a = ref (-1) and last_c = ref (-1) in
  for i = 0 to Array.length ix.Input.a_of - 1 do
    let ai = ix.Input.a_of.(i) in
    if ai >= 0 then begin
      let p = !last_a in
      if p >= 0 && start.(ai) < finish.(p) then
        fail "dependence-ordering"
          "A task %d (iteration %d) starts at %d before A task %d finishes at %d" ai i start.(ai)
          p finish.(p);
      last_a := ai;
      for k = ix.Input.b_off.(i) to ix.Input.b_off.(i + 1) - 1 do
        let b = ix.Input.b_ids.(k) in
        if start.(b) < finish.(ai) + lat then
          fail "dependence-ordering"
            "B task %d starts at %d before its A task %d is delivered (finish %d + latency %d)" b
            start.(b) ai finish.(ai) lat
      done
    end;
    let ci = ix.Input.c_of.(i) in
    if ci >= 0 then begin
      for k = ix.Input.b_off.(i) to ix.Input.b_off.(i + 1) - 1 do
        let b = ix.Input.b_ids.(k) in
        if start.(ci) < finish.(b) + lat then
          fail "dependence-ordering"
            "C task %d starts at %d before B task %d is delivered (finish %d + latency %d)" ci
            start.(ci) b finish.(b) lat
      done;
      let p = !last_c in
      if p >= 0 && start.(ci) < finish.(p) then
        fail "dependence-ordering" "C task %d starts at %d before C task %d finishes at %d" ci
          start.(ci) p finish.(p);
      last_c := ci
    end
  done

(* Explicit synchronized / speculated edges, in edge-list order.  The
   timing check is sound exactly when the recorded start and finish
   times are the times the consumer actually observed: under Serialize
   nothing ever re-executes, and under Squash a zero squash count means
   the same.  With squashes > 0 a producer may have re-executed after an
   already-committed consumer sampled it, so the final times cannot be
   compared edge-wise.  Speculated edges only gate the consumer under
   Serialize; under Squash an early consumer is squashed rather than
   delayed, and with zero squashes we can only conclude the sync edges
   held. *)
let check_edges (cfg : Machine.Config.t) (policy : Sched.policy) (ix : Input.index)
    (r : Sched.loop_result) start finish =
  let lat = cfg.Machine.Config.comm_latency in
  let serialize = policy.Sched.misspec = Sched.Serialize in
  if serialize || r.Sched.squashes = 0 then
    for e = 0 to Array.length ix.Input.e_src - 1 do
      let spec = ix.Input.e_spec.(e) = 1 in
      if (not spec) || serialize then begin
        let dst = ix.Input.e_dst.(e) in
        let req = edge_requirement policy lat ix start finish e in
        if start.(dst) < req then
          fail "dependence-ordering" "%s edge %d -> %d violated: consumer starts at %d, needs >= %d"
            (if spec then "speculated" else "synchronized")
            ix.Input.e_src.(e) dst start.(dst) req
      end
    done

let check_speculation_accounting (cfg : Machine.Config.t) (policy : Sched.policy)
    (ix : Input.index) (r : Sched.loop_result) start finish =
  let n = Array.length start in
  if r.Sched.misspec_delayed < 0 then
    fail "speculation-accounting" "negative misspec_delayed %d" r.Sched.misspec_delayed;
  if r.Sched.squashes < 0 then
    fail "speculation-accounting" "negative squash count %d" r.Sched.squashes;
  match policy.Sched.misspec with
  | Sched.Serialize ->
    if r.Sched.squashes <> 0 then
      fail "speculation-accounting" "%d squashes under the Serialize policy" r.Sched.squashes;
    (* A task counted as misspec-delayed had its readiness pushed past
       every synchronized constraint by a speculated in-edge: its
       maximal speculated-edge requirement strictly exceeds its maximal
       synchronized one, and its start honours it.  (The start can sit
       later than the requirement — the task may additionally have
       waited on a core or a queue slot — so equality cannot be
       demanded.)  Recount the candidates from the final schedule; the
       counter can never exceed them, so a zero counter needs no
       recount, and with no speculated edges there are none. *)
    if r.Sched.misspec_delayed > 0 then begin
      let lat = cfg.Machine.Config.comm_latency in
      let spec_req = Array.make n (-1) and sync_req = Array.make n 0 in
      for e = 0 to Array.length ix.Input.e_src - 1 do
        let dst = ix.Input.e_dst.(e) in
        let req = edge_requirement policy lat ix start finish e in
        if ix.Input.e_spec.(e) = 1 then (if req > spec_req.(dst) then spec_req.(dst) <- req)
        else if req > sync_req.(dst) then sync_req.(dst) <- req
      done;
      let candidates = ref 0 in
      for t = 0 to n - 1 do
        if spec_req.(t) >= 0 && spec_req.(t) > sync_req.(t) && start.(t) >= spec_req.(t) then
          incr candidates
      done;
      if r.Sched.misspec_delayed > !candidates then
        fail "speculation-accounting"
          "misspec_delayed = %d but only %d tasks are gated by a dominating speculated edge"
          r.Sched.misspec_delayed !candidates
    end
  | Sched.Squash ->
    (* Every delay is charged at some task start, and there are at most
       ntasks + squashes starts in the whole run. *)
    if r.Sched.misspec_delayed > n + r.Sched.squashes then
      fail "speculation-accounting" "misspec_delayed = %d exceeds the %d task starts"
        r.Sched.misspec_delayed (n + r.Sched.squashes)

let check_queue_bounds (cfg : Machine.Config.t) (ix : Input.index) (r : Sched.loop_result) =
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
    let b_tasks = Array.length ix.Input.b_ids in
    let executed = Array.fold_left ( + ) 0 r.Sched.b_tasks_per_core in
    if executed <> b_tasks then
      fail "queue-bounds" "B cores executed %d tasks; the loop has %d B tasks" executed b_tasks
  end

let check_busy ~cores (loop : Input.loop) (r : Sched.loop_result) w =
  if Array.length r.Sched.busy <> cores then
    fail "busy-conservation" "busy array has %d slots for %d cores"
      (Array.length r.Sched.busy) cores;
  for c = 0 to cores - 1 do
    let busy = r.Sched.busy.(c) and sum = w.per_core.(c) in
    if r.Sched.squashes = 0 then begin
      if busy <> sum then
        fail "busy-conservation" "core %d busy %d but its intervals sum to %d" c busy sum
    end
    else if busy < sum then
      fail "busy-conservation" "core %d busy %d below its final intervals' sum %d" c busy sum;
    (* Busy charges only time a core actually spent occupied (aborted runs
       count their elapsed portion, not their full work), and a core is
       occupied by at most one task at a time, so busy can never exceed
       the loop's span. *)
    if busy > r.Sched.span then
      fail "busy-conservation" "core %d busy %d exceeds span %d" c busy r.Sched.span
  done;
  let total = Array.fold_left ( + ) 0 r.Sched.busy in
  let work = Input.loop_work loop in
  if r.Sched.squashes = 0 && total <> work then
    fail "busy-conservation" "total busy %d does not equal loop work %d" total work;
  if total < work then
    fail "busy-conservation" "total busy %d below loop work %d" total work

let check_commit_order (ix : Input.index) start =
  let last = ref (-1) in
  Array.iteri
    (fun i ci ->
      if ci >= 0 then begin
        let j = !last in
        if j >= 0 && start.(ci) < start.(ix.Input.c_of.(j)) then
          fail "commit-order" "iteration %d commits (C start %d) before iteration %d (C start %d)"
            i start.(ci) j start.(ix.Input.c_of.(j));
        last := i
      end)
    ix.Input.c_of

(* A 0/1-core machine executes the loop serially in task order; edges and
   latency do not apply, so only coverage, exclusivity and conservation
   are meaningful. *)
let validate_serial (cfg : Machine.Config.t) (loop : Input.loop) (r : Sched.loop_result) =
  let cores = cfg.Machine.Config.cores in
  let w = walk_schedule ~cores loop r in
  check_coverage loop r w;
  check_core_exclusivity ~cores r w;
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
      let cores = cfg.Machine.Config.cores in
      let w = walk_schedule ~cores loop r in
      check_coverage loop r w;
      check_core_exclusivity ~cores r w;
      let ix = Input.index loop in
      check_structural cfg ix w.start w.finish;
      check_edges cfg policy ix r w.start w.finish;
      check_speculation_accounting cfg policy ix r w.start w.finish;
      check_queue_bounds cfg ix r;
      check_busy ~cores loop r w;
      check_commit_order ix w.start
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
