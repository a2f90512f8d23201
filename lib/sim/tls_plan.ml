type result = {
  span : int;
  commits : int;
  stalled_on_buffer : int;
  misspec_delayed : int;
}

(* Each task's accesses happen at an offset within its iteration's
   merged execution, whose phases run in A, B, C order: the A task
   first, then the B tasks by ascending intra, ties by ascending id,
   then the C task.  Returns each iteration's work and each task's
   offset. *)
let iteration_offsets (ix : Input.index) =
  let iters = Array.length ix.Input.a_of and w = ix.Input.t_work and intra = ix.Input.t_intra in
  let work = Array.make iters 0 in
  let prefix = Array.make (Array.length w) 0 in
  let by_intra_id x y =
    let c = Int.compare intra.(x) intra.(y) in
    if c <> 0 then c else Int.compare x y
  in
  for i = 0 to iters - 1 do
    let off = ref 0 in
    let place t =
      if t >= 0 then begin
        prefix.(t) <- !off;
        off := !off + w.(t)
      end
    in
    place ix.Input.a_of.(i);
    let lo = ix.Input.b_off.(i) and hi = ix.Input.b_off.(i + 1) in
    let bs = Array.sub ix.Input.b_ids lo (hi - lo) in
    Array.sort by_intra_id bs;
    Array.iter place bs;
    place ix.Input.c_of.(i);
    work.(i) <- !off
  done;
  (work, prefix)

(* A cross-iteration dependence with known offsets synchronizes at the
   access points — how TLS hardware forwards a scalar chain without
   serializing whole iterations; a dependence with no offset information
   (explicit register/control edges) conservatively waits for the
   producing iteration to finish. *)
let run_loop (cfg : Machine.Config.t) (loop : Input.loop) =
  let n = cfg.Machine.Config.cores in
  let lat = cfg.Machine.Config.comm_latency in
  let cap = cfg.Machine.Config.queue_capacity in
  let ix = Input.index loop in
  let work, prefix = iteration_offsets ix in
  let iters = Array.length work in
  if iters = 0 then { span = 0; commits = 0; stalled_on_buffer = 0; misspec_delayed = 0 }
  else if n <= 1 then
    {
      span = Array.fold_left ( + ) 0 work;
      commits = iters;
      stalled_on_buffer = 0;
      misspec_delayed = 0;
    }
  else begin
    let core_free = Array.make n 0 in
    let start = Array.make iters 0 in
    let finish = Array.make iters 0 in
    let commit = Array.make iters 0 in
    let stalled = ref 0 and delayed = ref 0 in
    (* The latest time iteration [i]'s dependences on earlier iterations
       allow it to start, over task [t]'s in-edges. *)
    let dep_ready = ref 0 in
    let gate i t =
      for k = ix.Input.in_off.(t) to ix.Input.in_off.(t + 1) - 1 do
        let e = ix.Input.in_idx.(k) in
        let src = ix.Input.e_src.(e) in
        let j = ix.Input.t_iter.(src) in
        if j < i then begin
          let soff = ix.Input.e_soff.(e) and doff = ix.Input.e_doff.(e) in
          let ready =
            if soff = 0 && doff = 0 then finish.(j) + lat
            else max 0 (start.(j) + prefix.(src) + soff + lat - (prefix.(t) + doff))
          in
          if ready > !dep_ready then dep_ready := ready
        end
      done
    in
    for i = 0 to iters - 1 do
      (* Buffering: at most [cap] uncommitted iterations in flight. *)
      let buffer_ready = if i >= cap then commit.(i - cap) else 0 in
      dep_ready := 0;
      if ix.Input.a_of.(i) >= 0 then gate i ix.Input.a_of.(i);
      for k = ix.Input.b_off.(i) to ix.Input.b_off.(i + 1) - 1 do
        gate i ix.Input.b_ids.(k)
      done;
      if ix.Input.c_of.(i) >= 0 then gate i ix.Input.c_of.(i);
      let dep_ready = !dep_ready in
      (* Least-loaded core. *)
      let best = ref 0 in
      for c = 1 to n - 1 do
        if core_free.(c) < core_free.(!best) then best := c
      done;
      let base = max core_free.(!best) buffer_ready in
      if buffer_ready > core_free.(!best) then incr stalled;
      if dep_ready > base then incr delayed;
      start.(i) <- max base dep_ready;
      finish.(i) <- start.(i) + work.(i);
      core_free.(!best) <- finish.(i);
      commit.(i) <- max finish.(i) (if i > 0 then commit.(i - 1) else 0)
    done;
    {
      span = commit.(iters - 1);
      commits = iters;
      stalled_on_buffer = !stalled;
      misspec_delayed = !delayed;
    }
  end

let run cfg (input : Input.t) =
  let seq = Input.total_work input in
  let loops = ref [] in
  let total =
    List.fold_left
      (fun acc seg ->
        match seg with
        | Input.Serial w -> acc + w
        | Input.Parallel loop ->
          let r = run_loop cfg loop in
          let placeholder =
            {
              Pipeline.span = r.span;
              busy = Array.make cfg.Machine.Config.cores 0;
              misspec_delayed = r.misspec_delayed;
              squashes = 0;
              in_queue_high_water = 0;
              out_queue_high_water = 0;
              b_tasks_per_core = [||];
              schedule = [];
            }
          in
          loops := (loop.Input.name, placeholder) :: !loops;
          acc + r.span)
      0 input.Input.segments
  in
  {
    Pipeline.total_time = total;
    sequential_time = seq;
    loops = List.rev !loops;
  }

let speedup cfg input = Pipeline.speedup (run cfg input)
