module E = Obs.Event

type edge_kind =
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

type step =
  | Exec of { task : int; core : int; phase : char; iteration : int; t0 : int; t1 : int }
  | Edge of { kind : edge_kind; t0 : int; t1 : int }

type t = { span : int; steps : step list }

let phase_letter = function Ir.Task.A -> 'A' | Ir.Task.B -> 'B' | Ir.Task.C -> 'C'

(* What the backward walk decides at each task start. *)
type justification =
  | Producer of edge_kind * int * int  (* edge kind, producer task, anchor (producer cut) *)
  | Hop of edge_kind * int * int  (* edge kind, task whose *start* freed us, its start *)
  | Attempt of int  (* a squashed attempt (index in event order), ending at [s] *)
  | Fallback of int option * int  (* interval task (None: attempt-less wait), its end < s *)
  | Root

(* Time-sorted indexes.  An index is an int array of ids sorted by
   their time; the ids at one instant sit in one run, which [first_at]
   finds by binary search and the callers scan (such runs are short:
   the tasks of different cores that finish or start together).

   [by_time] is a stable natural merge sort: it splits its input into
   maximal ascending runs and merges neighbours until one is left, so it
   costs O(n log r) for r runs.  The inputs it gets are nearly sorted:
   the schedule lists tasks in completion order, each core's tasks
   start in that order too, and the event stream is in time order. *)
let by_time time ids =
  let n = Array.length ids in
  let bounds = ref [ n ] in
  for k = n - 1 downto 1 do
    if time ids.(k) < time ids.(k - 1) then bounds := k :: !bounds
  done;
  let bounds = ref (Array.of_list (0 :: !bounds)) in
  let src = ref ids and dst = ref (Array.make n 0) in
  while Array.length !bounds > 2 do
    let b = !bounds and a = !src and out = !dst in
    let runs = Array.length b - 1 in
    let merged = Array.make (((runs + 1) / 2) + 1) n in
    for r = 0 to (runs / 2) - 1 do
      let lo = b.(2 * r) and mid = b.((2 * r) + 1) and hi = b.((2 * r) + 2) in
      merged.(r) <- lo;
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && time a.(!i) <= time a.(!j)) then begin
          out.(k) <- a.(!i);
          incr i
        end
        else begin
          out.(k) <- a.(!j);
          incr j
        end
      done
    done;
    if runs mod 2 = 1 then begin
      let lo = b.(runs - 1) in
      merged.(runs / 2) <- lo;
      Array.blit a lo out lo (n - lo)
    end;
    bounds := merged;
    src := out;
    dst := a
  done;
  !src

(* The first position of [idx] (sorted by [time]) whose time is at least
   [t]; the run at [t] goes on from there while the time stays [t]. *)
let first_at time idx t =
  let lo = ref 0 and hi = ref (Array.length idx) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if time idx.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* The first of [ids.(k) .. ids.(hi - 1)] that [ok] accepts. *)
let rec first_of ids k hi ok =
  if k >= hi then None else if ok ids.(k) then Some ids.(k) else first_of ids (k + 1) hi ok

(* The largest position <= [k] that is not [dead], or -1.  Positions
   only ever die, so [left] short-cuts each run of dead positions once
   it has been walked (path compression): a walk that kills positions
   as it goes pays O(log n) amortized per query. *)
let live_at_or_before left dead k =
  let r = ref k in
  while !r >= 0 && dead !r do
    r := left.(!r)
  done;
  let root = !r in
  let j = ref k in
  while !j > root do
    let next = left.(!j) in
    left.(!j) <- root;
    j := next
  done;
  root

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
    let ix = Sim.Input.index loop in
    let e_src = ix.Sim.Input.e_src and e_spec = ix.Sim.Input.e_spec in
    (* The first of [tid]'s in-edges (reverse edge order), or of
       iteration [i]'s B tasks (descending id), that [ok] accepts. *)
    let first_in_edge tid ok =
      first_of ix.Sim.Input.in_idx ix.Sim.Input.in_off.(tid) ix.Sim.Input.in_off.(tid + 1) ok
    in
    let first_b i ok =
      first_of ix.Sim.Input.b_ids ix.Sim.Input.b_off.(i) ix.Sim.Input.b_off.(i + 1) ok
    in
    let gating e = e_spec.(e) = 0 || policy.Sim.Sched.misspec = Sim.Sched.Serialize in
    (* Event-derived lookups: dispatch time and slot per B task, squash
       flags, squashed attempts (task, core, start, end, in event order),
       out-queue pops (slot, time). *)
    let dispatch_t = Array.make nt (-1) in
    let slot_of = Array.make nt (-1) in
    let squashed = Array.make nt false in
    let run_open = Array.make nt false in
    let run_start = Array.make nt 0 and run_core = Array.make nt 0 in
    let attempts = ref [] and pops = ref [] in
    List.iter
      (fun e ->
        match e with
        | E.Dispatch { time; task; slot } ->
          if task < nt && dispatch_t.(task) < 0 then begin
            dispatch_t.(task) <- time;
            slot_of.(task) <- slot
          end
        | E.Task_start { time; task; core; _ } ->
          if task >= 0 && task < nt then begin
            run_open.(task) <- true;
            run_start.(task) <- time;
            run_core.(task) <- core
          end
        | E.Task_finish { task; _ } -> if task >= 0 && task < nt then run_open.(task) <- false
        | E.Task_squash { time = _; task; core; elapsed } ->
          if task < nt then squashed.(task) <- true;
          if task >= 0 && task < nt && run_open.(task) && run_core.(task) = core then begin
            run_open.(task) <- false;
            let s = run_start.(task) in
            attempts := (task, core, s, s + elapsed) :: !attempts
          end
        | E.Queue_pop { queue = E.Out_queue; slot; time; _ } -> pops := (slot, time) :: !pops
        | _ -> ())
      events;
    let attempts = Array.of_list (List.rev !attempts) in
    let na = Array.length attempts in
    let att_task k = let x, _, _, _ = attempts.(k) in x in
    let att_core k = let _, c, _, _ = attempts.(k) in c in
    let att_start k = let _, _, s, _ = attempts.(k) in s in
    let att_end k = let _, _, _, e = attempts.(k) in e in
    (* An attempt is identified by its (task, start) pair: a task squashed
       at the instant it started can start again at that instant, and
       both attempts share one visited flag, kept at [same.(k)], the
       first attempt with attempt k's pair. *)
    let same = Array.init na Fun.id in
    let by_pair = by_time att_task (by_time att_start (Array.init na Fun.id)) in
    for j = 1 to na - 1 do
      let k = by_pair.(j) and k' = by_pair.(j - 1) in
      if att_task k = att_task k' && att_start k = att_start k' then same.(k) <- same.(k')
    done;
    let visited_attempt = Array.make na false in
    let attempt_visited k = visited_attempt.(same.(k)) in
    let by_end = by_time att_end (Array.init na Fun.id) in
    let pops = Array.of_list (List.rev !pops) in
    let pop_time k = snd pops.(k) in
    let pops_by_time = by_time pop_time (Array.init (Array.length pops) Fun.id) in
    (* Scheduled tasks by finish (the schedule's own order) and, built on
       first use, by start: the finish order regrouped by core (stably;
       cores outside the machine last) is a few runs of ascending starts
       to merge. *)
    let listed = Array.make nt false and count = ref 0 in
    let scheduled = Array.make nt 0 in
    List.iter
      (fun (s : Sim.Sched.sched_entry) ->
        let tid = s.Sim.Sched.s_task in
        if start.(tid) >= 0 && not listed.(tid) then begin
          listed.(tid) <- true;
          scheduled.(!count) <- tid;
          incr count
        end)
      r.Sim.Sched.schedule;
    let scheduled = Array.sub scheduled 0 !count in
    let fin t = finish.(t) and st t = start.(t) in
    let by_finish = by_time fin scheduled in
    let by_start =
      lazy
        (let cores = cfg.Machine.Config.cores in
         let group t = if core_of.(t) >= 0 && core_of.(t) < cores then core_of.(t) else cores in
         let next = Array.make (cores + 2) 0 in
         Array.iter (fun t -> next.(group t + 1) <- next.(group t + 1) + 1) by_finish;
         for c = 1 to cores + 1 do
           next.(c) <- next.(c) + next.(c - 1)
         done;
         let grouped = Array.make (Array.length by_finish) 0 in
         Array.iter
           (fun t ->
             grouped.(next.(group t)) <- t;
             next.(group t) <- next.(group t) + 1)
           by_finish;
         by_time st grouped)
    in
    let visited_exec = Array.make nt false in
    let visited_hop = Array.make nt false in
    (* The lowest id in [idx]'s run at [t] that [ok] accepts. *)
    let lowest time idx t ok =
      let best = ref (-1) and k = ref (first_at time idx t) in
      while !k < Array.length idx && time idx.(!k) = t do
        let x = idx.(!k) in
        if ok x && (!best < 0 || x < !best) then best := x;
        incr k
      done;
      if !best < 0 then None else Some !best
    in
    (* Constraint one in-edge puts on its consumer, mirroring the
       simulator's [constraint_of]. *)
    let edge_constraint e =
      let p = e_src.(e) in
      if p >= nt || start.(p) < 0 then None
      else if policy.Sim.Sched.forwarding then
        Some (max 0 (start.(p) + ix.Sim.Input.e_soff.(e) + lat - ix.Sim.Input.e_doff.(e)))
      else Some (finish.(p) + lat)
    in
    let justify_of tid s =
      let iter = tasks.(tid).Ir.Task.iteration in
      let phase = tasks.(tid).Ir.Task.phase in
      (* 1. squash re-execution: the speculated producer whose finish
         set [min_restart]. *)
      let c1 =
        if not squashed.(tid) then None
        else
          first_in_edge tid (fun e ->
              let p = e_src.(e) in
              e_spec.(e) = 1 && gating e && p < nt
              && finish.(p) >= 0
              && finish.(p) + lat = s
              && not visited_exec.(p))
          |> Option.map (fun e -> Producer (Squash_rerun, e_src.(e), finish.(e_src.(e))))
      in
      (* 2. an explicit dependence edge achieving the start exactly. *)
      let c2 () =
        first_in_edge tid (fun e ->
            gating e && edge_constraint e = Some s && not visited_exec.(e_src.(e)))
        |> Option.map (fun e ->
               let p = e_src.(e) in
               let kind = if e_spec.(e) = 1 then Spec_serialize else Sync_dep in
               Producer (kind, p, min s finish.(p)))
      in
      (* 3. C start gated by the iteration's delivery: last B result (or
         the dispatch token when the iteration has no B tasks) plus one
         hop. *)
      let c3 () =
        if phase <> Ir.Task.C then None
        else
          let from_b =
            first_b iter (fun b ->
                finish.(b) >= 0 && finish.(b) + lat = s && not visited_exec.(b))
            |> Option.map (fun b -> Producer (Queue_hop, b, finish.(b)))
          in
          match from_b with
          | Some _ -> from_b
          | None ->
            let a = ix.Sim.Input.a_of.(iter) in
            if a >= 0 && finish.(a) >= 0 && finish.(a) + lat = s && not visited_exec.(a) then
              Some (Producer (Queue_hop, a, finish.(a)))
            else None
      in
      (* A task other than [tid] starting at [t], not yet on the path:
         the lowest such id. *)
      let starter_at t =
        lowest st (Lazy.force by_start) t (fun b' ->
            b' <> tid && (not visited_hop.(b')) && not visited_exec.(b'))
      in
      (* 4. B start at queue arrival: dispatch + one hop.  The dispatch
         itself happened either right at the iteration's A finish (clean
         hand-off) or when another B start freed an in-queue slot
         (backpressure). *)
      let c4 () =
        if phase <> Ir.Task.B || dispatch_t.(tid) < 0 || dispatch_t.(tid) + lat <> s then None
        else begin
          let d = dispatch_t.(tid) in
          let a = ix.Sim.Input.a_of.(iter) in
          if a >= 0 && finish.(a) = d && not visited_exec.(a) then
            Some (Producer (Queue_hop, a, finish.(a)))
          else starter_at d |> Option.map (fun b' -> Hop (Backpressure, b', d))
        end
      in
      (* 5. B start released by its out-queue draining (a commit popped
         the slot at exactly this instant); follow whichever task
         started with the commit. *)
      let c5 () =
        let slot = slot_of.(tid) in
        let popped () =
          let n = Array.length pops_by_time in
          let rec any k =
            k < n
            && pop_time pops_by_time.(k) = s
            && (fst pops.(pops_by_time.(k)) = slot || any (k + 1))
          in
          any (first_at pop_time pops_by_time s)
        in
        if phase <> Ir.Task.B || slot < 0 || not (popped ()) then None
        else starter_at s |> Option.map (fun c' -> Hop (Backpressure, c', s))
      in
      (* 6. the same core's previous execution ending exactly here. *)
      let c6 () =
        lowest fin by_finish s (fun q ->
            core_of.(q) = core_of.(tid) && q <> tid && not visited_exec.(q))
        |> Option.map (fun q -> Producer (Same_core, q, s))
      in
      (* 7. the latest squashed attempt on the same core ending exactly
         here, unless already on the path. *)
      let c7 () =
        let latest = ref (-1) and k = ref (first_at att_end by_end s) in
        while !k < na && att_end by_end.(!k) = s do
          let x = by_end.(!k) in
          if att_core x = core_of.(tid) && x > !latest then latest := x;
          incr k
        done;
        if !latest >= 0 && not (attempt_visited !latest) then Some (Attempt !latest) else None
      in
      let ( <|> ) a b = match a with Some _ -> a | None -> b () in
      c1 <|> c2 <|> c3 <|> c4 <|> c5 <|> c6 <|> c7
    in
    (* Fallback: the latest execution (final or attempt) ending strictly
       before [s], a final one on a tie, the lowest task id among final
       ones; covers anything the exact-match candidates miss so the
       tiling never breaks. *)
    let finish_left = lazy (Array.init (Array.length by_finish) (fun k -> k - 1)) in
    let end_left = lazy (Array.init na (fun k -> k - 1)) in
    let fallback s =
      let task_best =
        let k =
          live_at_or_before (Lazy.force finish_left)
            (fun k -> visited_exec.(by_finish.(k)))
            (first_at fin by_finish s - 1)
        in
        if k < 0 then None
        else
          let f = fin by_finish.(k) in
          Option.map (fun tid -> (f, tid)) (lowest fin by_finish f (fun q -> not visited_exec.(q)))
      in
      let attempt_end =
        let k =
          live_at_or_before (Lazy.force end_left)
            (fun k -> attempt_visited by_end.(k))
            (first_at att_end by_end s - 1)
        in
        if k < 0 then None else Some (att_end by_end.(k))
      in
      match (task_best, attempt_end) with
      | Some (f, tid), Some e when f >= e -> Fallback (Some tid, f)
      | Some (f, tid), None -> Fallback (Some tid, f)
      | _, Some e -> Fallback (None, e)
      | None, None -> Root
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
        | Some (Attempt k) ->
          let x = att_task k and a_start = att_start k in
          visited_attempt.(same.(k)) <- true;
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
      (* Consume the latest attempt ending at [f] not yet on the path. *)
      let found = ref (-1) and k = ref (first_at att_end by_end f) in
      while !k < na && att_end by_end.(!k) = f do
        let x = by_end.(!k) in
        if (not (attempt_visited x)) && x > !found then found := x;
        incr k
      done;
      if !found >= 0 then begin
        let k = !found in
        let x = att_task k and a_start = att_start k in
        visited_attempt.(same.(k)) <- true;
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
      end
      else push_edge Wait 0 f
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

let step_len = function Exec e -> e.t1 - e.t0 | Edge e -> e.t1 - e.t0

let length t = List.fold_left (fun acc s -> acc + step_len s) 0 t.steps

let by_phase t =
  let tbl = Hashtbl.create 4 in
  List.iter
    (function
      | Exec e ->
        Hashtbl.replace tbl e.phase
          ((try Hashtbl.find tbl e.phase with Not_found -> 0) + (e.t1 - e.t0))
      | Edge _ -> ())
    t.steps;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let by_edge t =
  let amount k =
    List.fold_left
      (fun acc s -> match s with Edge e when e.kind = k -> acc + (e.t1 - e.t0) | _ -> acc)
      0 t.steps
  in
  List.map (fun k -> (k, amount k)) edge_kinds

let check t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let bounds = function Exec e -> (e.t0, e.t1) | Edge e -> (e.t0, e.t1) in
  let rec go expected = function
    | [] -> if expected = t.span then Ok () else err "path ends at %d, span is %d" expected t.span
    | s :: rest ->
      let t0, t1 = bounds s in
      if t0 <> expected then err "step starts at %d, expected %d" t0 expected
      else if t1 < t0 then err "negative step [%d,%d)" t0 t1
      else go t1 rest
  in
  go 0 t.steps

let pp ppf t =
  Format.fprintf ppf "critical path (length %d):@." (length t);
  List.iter
    (function
      | Exec e ->
        Format.fprintf ppf "  [%6d,%6d) run  %c%d/i%d on core %d@." e.t0 e.t1 e.phase e.task
          e.iteration e.core
      | Edge e ->
        Format.fprintf ppf "  [%6d,%6d) edge %s@." e.t0 e.t1 (edge_kind_name e.kind))
    t.steps
