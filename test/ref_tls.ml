(* Reference TLS plan: Sim.Tls_plan.run_loop as it was before it read
   Sim.Input.index, kept verbatim but for one fix.  It sorts the loop's
   tasks with polymorphic compare to place each one within its merged
   iteration (the A task first, then the B tasks by intra, ties by id,
   then the C task) and buckets the edges by consumer iteration.  The
   fix is the phase term of that sort key: it compares the phase with
   B, which ranks A, B and C as -1, 0 and 1; comparing with A, as the
   copy did, ranked B and C alike and put C among the B tasks by intra.
   Sim.Tls_plan.run_loop must agree with [run_loop] here
   (test_sim_prop.ml). *)

module Input = Sim.Input

type result = Sim.Tls_plan.result = {
  span : int;
  commits : int;
  stalled_on_buffer : int;
  misspec_delayed : int;
}

(* Collapse the loop to per-iteration work and cross-iteration edges.

   Each task's accesses happen at an offset within its iteration's merged
   execution (phases run in A, B, C order inside one speculative
   iteration).  A dependence with known offsets synchronizes at the
   access points — how TLS hardware forwards a scalar chain without
   serializing whole iterations; a dependence with no offset information
   (explicit register/control edges) conservatively waits for the
   producing iteration to finish. *)
let iteration_view (loop : Input.loop) =
  let iters = Input.iterations loop in
  let work = Array.make iters 0 in
  Array.iter
    (fun (t : Ir.Task.t) ->
      work.(t.Ir.Task.iteration) <- work.(t.Ir.Task.iteration) + t.Ir.Task.work)
    loop.Input.tasks;
  (* Offset of each task within its merged iteration. *)
  let ntasks = Array.length loop.Input.tasks in
  let prefix = Array.make ntasks 0 in
  let sorted =
    Array.to_list loop.Input.tasks
    |> List.sort (fun (a : Ir.Task.t) (b : Ir.Task.t) ->
           compare
             (a.Ir.Task.iteration, Ir.Task.compare_phase a.Ir.Task.phase Ir.Task.B,
              a.Ir.Task.intra)
             (b.Ir.Task.iteration, Ir.Task.compare_phase b.Ir.Task.phase Ir.Task.B,
              b.Ir.Task.intra))
  in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (t : Ir.Task.t) ->
      let off = Option.value ~default:0 (Hashtbl.find_opt acc t.Ir.Task.iteration) in
      prefix.(t.Ir.Task.id) <- off;
      Hashtbl.replace acc t.Ir.Task.iteration (off + t.Ir.Task.work))
    sorted;
  let iter_of id = loop.Input.tasks.(id).Ir.Task.iteration in
  (* (producer iteration, producer sync offset or None for finish-based). *)
  let incoming = Array.make iters [] in
  List.iter
    (fun (e : Input.edge) ->
      let j = iter_of e.Input.src and i = iter_of e.Input.dst in
      if j < i then begin
        let constraint_ =
          if e.Input.src_offset = 0 && e.Input.dst_offset = 0 then `Finish
          else
            `Offsets
              (prefix.(e.Input.src) + e.Input.src_offset,
               prefix.(e.Input.dst) + e.Input.dst_offset)
        in
        incoming.(i) <- (j, constraint_) :: incoming.(i)
      end)
    loop.Input.edges;
  (work, incoming)

let run_loop (cfg : Machine.Config.t) (loop : Input.loop) =
  let n = cfg.Machine.Config.cores in
  let lat = cfg.Machine.Config.comm_latency in
  let cap = cfg.Machine.Config.queue_capacity in
  let work, incoming = iteration_view loop in
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
    for i = 0 to iters - 1 do
      (* Buffering: at most [cap] uncommitted iterations in flight. *)
      let buffer_ready = if i >= cap then commit.(i - cap) else 0 in
      (* Dependences: synchronize at the access points when known,
         conservatively at the producer's finish otherwise. *)
      let dep_ready =
        List.fold_left
          (fun acc (j, constraint_) ->
            match constraint_ with
            | `Finish -> max acc (finish.(j) + lat)
            | `Offsets (src_off, dst_off) ->
              max acc (max 0 (start.(j) + src_off + lat - dst_off)))
          0 incoming.(i)
      in
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
