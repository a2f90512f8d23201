module E = Obs.Event

type category = Busy | Producer_blocked | Consumer_starved | Dep_wait | Idle

let category_name = function
  | Busy -> "busy"
  | Producer_blocked -> "producer_blocked"
  | Consumer_starved -> "consumer_starved"
  | Dep_wait -> "dep_wait"
  | Idle -> "idle"

let categories = [ Busy; Producer_blocked; Consumer_starved; Dep_wait; Idle ]

type segment = { t0 : int; t1 : int; cat : category }

type core_line = { core : int; segments : segment list }

type t = {
  span : int;
  cores : core_line array;
  in_queues_full : int;
  any_in_queue_full : int;
  any_out_queue_full : int;
}

(* ------------------------------------------------------------------ *)
(* Growable pairs of int arrays.  A queue's occupancy, or a count of
   full queues, is a step function: value 0 at time 0, then one entry
   per timestamp carrying the last value written at it.  A core's busy
   intervals are (start, finish) pairs. *)

type pairs = { mutable xs : int array; mutable ys : int array; mutable len : int }

let pairs () = { xs = Array.make 8 0; ys = Array.make 8 0; len = 0 }

let push p x y =
  if p.len = Array.length p.xs then begin
    let grow a = Array.append a (Array.make p.len 0) in
    p.xs <- grow p.xs;
    p.ys <- grow p.ys
  end;
  p.xs.(p.len) <- x;
  p.ys.(p.len) <- y;
  p.len <- p.len + 1

let step_fn () =
  let p = pairs () in
  push p 0 0;
  p

let current fn = fn.ys.(fn.len - 1)

(* Writes arrive in time order: a write at the last entry's time
   replaces its value, a write that changes nothing is dropped. *)
let set fn time v =
  let last = fn.len - 1 in
  if fn.xs.(last) = time then fn.ys.(last) <- v else if fn.ys.(last) <> v then push fn time v

(* Time within [0, span) during which [pred] holds of the value. *)
let duration ~span fn pred =
  let acc = ref 0 in
  for i = 0 to fn.len - 1 do
    let t1 = if i + 1 < fn.len then min span fn.xs.(i + 1) else span in
    if t1 > fn.xs.(i) && pred fn.ys.(i) then acc := !acc + (t1 - fn.xs.(i))
  done;
  !acc

(* A read position in a step function for a sweep whose query times
   never decrease: the last entry at or before the latest query. *)
type cursor = { fn : pairs; mutable i : int }

let cursor fn = { fn; i = 0 }

let seek c x =
  while c.i + 1 < c.fn.len && c.fn.xs.(c.i + 1) <= x do
    c.i <- c.i + 1
  done

let value_at c x =
  seek c x;
  c.fn.ys.(c.i)

(* The first change after [x]. *)
let next_change c x =
  seek c x;
  if c.i + 1 < c.fn.len then c.fn.xs.(c.i + 1) else max_int

(* ------------------------------------------------------------------ *)

type role = Role_serial | Role_a | Role_b of int | Role_c | Role_ac

let of_events (cfg : Machine.Config.t) (loop : Sim.Input.loop) (r : Sim.Sched.loop_result)
    events =
  let n = cfg.Machine.Config.cores in
  let cap = cfg.Machine.Config.queue_capacity in
  let lat = cfg.Machine.Config.comm_latency in
  let span = r.Sim.Sched.span in
  let iters = Sim.Input.iterations loop in
  let ntasks = Array.length loop.Sim.Input.tasks in
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
  (* One pass over the events.  Busy intervals per core: final runs
     close with Task_finish, mid-run aborts with Task_squash (elapsed
     only).  A squash of an already-finished run finds no open interval
     and adds nothing — its full-length interval is already recorded.
     Queue occupancy per direction and slot, and per direction the count
     of slots at (or, via squash re-inserts, above) capacity.  Commit
     times per iteration. *)
  let busy = Array.init n (fun _ -> pairs ()) in
  let add_interval core s f = if core < n && f > s then push busy.(core) s f in
  let open_start = Array.make ntasks min_int and open_core = Array.make ntasks 0 in
  let close task s f =
    open_start.(task) <- min_int;
    add_interval open_core.(task) s f
  in
  let slots = max m 1 in
  let in_occ = Array.init slots (fun _ -> step_fn ()) in
  let out_occ = Array.init slots (fun _ -> step_fn ()) in
  let in_full = step_fn () and out_full = step_fn () in
  let occupancy occ full slot time v =
    let was_full = current occ.(slot) >= cap in
    set occ.(slot) time v;
    if (v >= cap) <> was_full then set full time (current full + if was_full then -1 else 1)
  in
  let commit_t = Array.make (max iters 1) max_int in
  List.iter
    (fun e ->
      match e with
      | E.Task_start { time; task; core; _ } ->
        open_start.(task) <- time;
        open_core.(task) <- core
      | E.Task_finish { time; task; core = _ } ->
        let s = open_start.(task) in
        if s <> min_int then close task s time
      | E.Task_squash { time = _; task; core = _; elapsed } ->
        let s = open_start.(task) in
        if s <> min_int then close task s (s + elapsed)
      | (E.Queue_push { queue; slot; time; occupancy = v; _ }
        | E.Queue_pop { queue; slot; time; occupancy = v; _ })
        when slot < slots -> (
        match queue with
        | E.In_queue -> occupancy in_occ in_full slot time v
        | E.Out_queue -> occupancy out_occ out_full slot time v)
      | E.Iter_commit { time; iteration } when iteration < iters -> commit_t.(iteration) <- time
      | _ -> ())
    events;
  (* A truncated recording (deadlock trace) may leave runs open. *)
  for task = 0 to ntasks - 1 do
    let s = open_start.(task) in
    if s <> min_int then close task s span
  done;
  (* Each core's intervals arrive in close order, which is start order
     for any recording where a core runs one task at a time; sort the
     others. *)
  Array.iter
    (fun p ->
      let sorted = ref true in
      for k = 1 to p.len - 1 do
        let s0 = p.xs.(k - 1) and s1 = p.xs.(k) in
        if s0 > s1 || (s0 = s1 && p.ys.(k - 1) > p.ys.(k)) then sorted := false
      done;
      if not !sorted then begin
        let a = Array.init p.len (fun k -> (p.xs.(k), p.ys.(k))) in
        Array.sort compare a;
        Array.iteri
          (fun k (s, f) ->
            p.xs.(k) <- s;
            p.ys.(k) <- f)
          a
      end)
    busy;
  (* Delivery times per iteration.  Delivery is when the last of the
     iteration's B results reaches the C core (final finish + one hop);
     an iteration without B tasks is treated as delivered at its commit,
     so none of the wait before it reads as starvation twice. *)
  let finish_t = Array.make ntasks (-1) in
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
  (* One core's timeline: its busy intervals, and its gaps classified by
     a forward sweep.  Each gap piece [x, y) takes the category of its
     start x and ends at the next time the role's inputs may change.  All
     cursors only advance, so a core costs its intervals plus the changes
     of the step functions its role reads. *)
  let line core =
    (* First iteration still uncommitted at time x (commits are in
       iteration order, so the array of commit times is non-decreasing). *)
    let waiting = ref 0 in
    let c_stage x =
      while !waiting < iters && commit_t.(!waiting) <= x do
        incr waiting
      done;
      if !waiting >= iters then (Dep_wait, max_int)
      else
        let i = !waiting in
        if x < deliver_t.(i) then (Consumer_starved, min commit_t.(i) deliver_t.(i))
        else (Dep_wait, commit_t.(i))
    in
    (* The category at x and the next time it may change. *)
    let classify =
      match role core with
      | Role_serial -> fun _ -> (Idle, max_int)
      | Role_a ->
        let full = cursor in_full in
        fun x ->
          ((if value_at full x = slots then Producer_blocked else Dep_wait), next_change full x)
      | Role_b s ->
        let inq = cursor in_occ.(s) and outq = cursor out_occ.(s) in
        fun x ->
          let cat =
            if value_at outq x >= cap then Producer_blocked
            else if value_at inq x = 0 then Consumer_starved
            else Dep_wait
          in
          (cat, min (next_change outq x) (next_change inq x))
      | Role_c -> c_stage
      | Role_ac ->
        let full = cursor in_full in
        fun x ->
          let blocked = value_at full x = slots in
          let cat, next = c_stage x in
          ((if blocked then Producer_blocked else cat), min next (next_change full x))
    in
    (* Segments newest first; adjacent segments of equal category merge
       and empty ones drop, so the output is compact. *)
    let segs = ref [] in
    let emit t0 t1 cat =
      match !segs with
      | prev :: rest when prev.cat = cat && prev.t1 = t0 -> segs := { prev with t1 } :: rest
      | _ -> if t1 > t0 then segs := { t0; t1; cat } :: !segs
    in
    let rec gap x g1 =
      if x < g1 then begin
        let cat, next = classify x in
        let y = min next g1 in
        emit x y cat;
        gap y g1
      end
    in
    let intervals = busy.(core) in
    let t = ref 0 in
    for k = 0 to intervals.len - 1 do
      (* Clamp against the cursor so tiling survives even a malformed
         (overlapping) recording; the simulator never produces one. *)
      let s = max intervals.xs.(k) !t in
      let f = max intervals.ys.(k) s in
      gap !t s;
      emit s f Busy;
      t := f
    done;
    (* Tail (or a never-used core): idle to the span. *)
    if !t < span then emit !t span Idle;
    { core; segments = List.rev !segs }
  in
  {
    span;
    cores = Array.init n line;
    in_queues_full = (if m = 0 then 0 else duration ~span in_full (fun v -> v = m));
    any_in_queue_full = (if m = 0 then 0 else duration ~span in_full (fun v -> v > 0));
    any_out_queue_full = (if m = 0 then 0 else duration ~span out_full (fun v -> v > 0));
  }

let core_total line cat =
  List.fold_left (fun acc s -> if s.cat = cat then acc + (s.t1 - s.t0) else acc) 0 line.segments

let total t cat = Array.fold_left (fun acc line -> acc + core_total line cat) 0 t.cores

let check t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec check_line c expected = function
    | [] -> if expected = t.span then Ok () else err "core %d: segments end at %d, span is %d" c expected t.span
    | s :: rest ->
      if s.t0 <> expected then err "core %d: segment starts at %d, expected %d" c s.t0 expected
      else if s.t1 < s.t0 then err "core %d: negative segment [%d,%d)" c s.t0 s.t1
      else check_line c s.t1 rest
  in
  Array.to_list t.cores
  |> List.fold_left
       (fun acc line -> match acc with Error _ -> acc | Ok () -> check_line line.core 0 line.segments)
       (Ok ())

let pp ppf t =
  Format.fprintf ppf "core  %10s %10s %10s %10s %10s@." "busy" "blocked" "starved" "dep-wait"
    "idle";
  Array.iter
    (fun line ->
      Format.fprintf ppf "%4d  %10d %10d %10d %10d %10d@." line.core (core_total line Busy)
        (core_total line Producer_blocked)
        (core_total line Consumer_starved)
        (core_total line Dep_wait) (core_total line Idle))
    t.cores
