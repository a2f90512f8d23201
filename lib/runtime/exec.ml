type role_stats = {
  rs_role : string;
  rs_items : int;
  rs_busy : float;
  rs_starved : float;
  rs_blocked : float;
}

type stats = {
  threads : int;
  replicas : int;
  seconds : float;
  squashes : int;
  violations : int;
  roles : role_stats array;
}

type queue_stat = {
  qs_queue : Obs.Event.queue;
  qs_slot : int;
  qs_capacity : int;
  qs_high_water : int;
  qs_pushes : int;
}

type role_probe = {
  rp_role : string;
  rp_stage : Obs.Hist.t;
  rp_push_stall : Obs.Hist.t;
  rp_pop_stall : Obs.Hist.t;
  rp_squash : Obs.Hist.t;
  rp_validate : Obs.Hist.t;
}

type telemetry = {
  tl_roles : role_probe array;
  tl_queues : queue_stat list;
  tl_dropped : int;
}

(* The probe rings of a run, one per role in [stats.roles] order. *)
type recording = { loop : string; span_us : int; rings : Obs.Probe.t array }

type result = {
  output : string;
  stats : stats;
  telemetry : telemetry option;
  recording : recording;
}

let now = Unix.gettimeofday

(* Probe record kinds; a record's code is its constructor's index in
   [kinds].  Span records ([Stage] .. [Validate]) carry their duration
   in [a]; queue records ([Push], [Pop]) carry the ring's occupancy
   after the operation.  [b] is the iteration, except for stalls, whose
   [b] is the queue slot.  Timestamps are microseconds since the run's
   origin, taken when the record is written. *)
type kind = Stage | Push_stall | Pop_stall | Squash | Validate | Push | Pop

let kinds = [| Stage; Push_stall; Pop_stall; Squash; Validate; Push; Pop |]

let code = function
  | Stage -> 0
  | Push_stall -> 1
  | Pop_stall -> 2
  | Squash -> 3
  | Validate -> 4
  | Push -> 5
  | Pop -> 6

(* A role writes at most five records per iteration (pop + stall,
   stage or validate + squash, push + stall) plus one stall on the
   closing pop, so a ring this size never wraps. *)
let ring_capacity n = (5 * n) + 1

(* A role's recorder: its probe ring, written only by the role itself
   and read after the batch joins, and the run's clock origin. *)
type acct = {
  mutable origin : float;
  prb : Obs.Probe.t option;
}

(* Telemetry's only clock read.  Every caller sits behind a [Some]
   check of [acct.prb], so a probe-off run reads no clock for it. *)
let clock_us acct = int_of_float ((now () -. acct.origin) *. 1e6)

(* A span record ending now; [since] is its start in run microseconds. *)
let note_span acct kind ~since ~b =
  match acct.prb with
  | None -> ()
  | Some p ->
    let time = clock_us acct in
    Obs.Probe.record p ~kind:(code kind) ~time ~a:(time - since) ~b

(* A queue record for iteration [i]; only a probed run reads the peer's
   cursor for the occupancy. *)
let note_queue acct kind q i =
  match acct.prb with
  | None -> ()
  | Some p -> Obs.Probe.record p ~kind:(code kind) ~time:(clock_us acct) ~a:(Spsc.length q) ~b:i

(* A span's start in run microseconds: a clock read only when probed. *)
let mark acct = match acct.prb with None -> 0 | Some _ -> clock_us acct

(* One stage body, recorded as a [Stage] span. *)
let stage acct f i x =
  let since = mark acct in
  let v = f i x in
  note_span acct Stage ~since ~b:i;
  v

(* Stall durations are recorded only on the slow path (the ring looked
   empty/full at least once), so a smooth pipeline writes none. *)
let pop_acct acct ~slot q =
  let x =
    match Spsc.try_pop q with
    | `Item x -> Some x
    | `Closed -> None
    | `Empty ->
      let since = mark acct in
      let rec spin k =
        match Spsc.try_pop q with
        | `Empty ->
          Spsc.backoff k;
          spin (k + 1)
        | (`Item _ | `Closed) as r ->
          note_span acct Pop_stall ~since ~b:slot;
          (match r with `Item x -> Some x | `Closed -> None)
      in
      spin 0
  in
  (match x with Some (i, _) -> note_queue acct Pop q i | None -> ());
  x

let push_acct acct ~slot q ((i, _) as x) =
  if not (Spsc.try_push q x) then begin
    let since = mark acct in
    let rec spin k =
      if Spsc.try_push q x then note_span acct Push_stall ~since ~b:slot
      else begin
        Spsc.backoff k;
        spin (k + 1)
      end
    in
    spin 0
  end;
  note_queue acct Push q i

(* A [Spec] location's value in a flat store; a read past the end sees
   0, as an unknown location does in [Staged.run_seq]. *)
let value a loc = if loc < Array.length a then a.(loc) else 0

(* A copy of [a] long enough to index [loc], padded with [fill]. *)
let grown a loc fill =
  let a' = Array.make (max (loc + 1) (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* A B replica's forwarding overlay: [owner.(loc)] is the youngest of
   its own iterations that wrote [loc] (-1 if none) and [latest.(loc)]
   what it wrote.  An entry is live while [owner.(loc)] is not yet
   committed; after that the store holds the value, or a younger one. *)
type overlay = { mutable owner : int array; mutable latest : int array }

let forward ov i (loc, v) =
  if loc >= Array.length ov.owner then begin
    ov.owner <- grown ov.owner loc (-1);
    ov.latest <- grown ov.latest loc 0
  end;
  ov.owner.(loc) <- i;
  ov.latest.(loc) <- v

let no_recording = { loop = ""; span_us = 0; rings = [||] }

let seq_result staged =
  let t0 = now () in
  let output = Staged.run_seq staged in
  {
    output;
    stats =
      {
        threads = 1;
        replicas = 0;
        seconds = now () -. t0;
        squashes = 0;
        violations = 0;
        roles = [||];
      };
    telemetry = None;
    recording = no_recording;
  }

let role_name ~r k = if k = 0 then "A" else if k <= r then Printf.sprintf "B%d" (k - 1) else "C"

let role_probe ~r k ring =
  let rp =
    {
      rp_role = role_name ~r k;
      rp_stage = Obs.Hist.create ();
      rp_push_stall = Obs.Hist.create ();
      rp_pop_stall = Obs.Hist.create ();
      rp_squash = Obs.Hist.create ();
      rp_validate = Obs.Hist.create ();
    }
  in
  List.iter
    (fun (e : Obs.Probe.entry) ->
      let add h = Obs.Hist.add h e.e_a in
      match kinds.(e.e_kind) with
      | Stage -> add rp.rp_stage
      | Push_stall -> add rp.rp_push_stall
      | Pop_stall -> add rp.rp_pop_stall
      | Squash -> add rp.rp_squash
      | Validate -> add rp.rp_validate
      | Push | Pop -> ())
    (Obs.Probe.entries ring);
  rp

(* A role's row, folded from its histograms of microsecond spans. *)
let role_row rp =
  let seconds hs = float_of_int (List.fold_left (fun acc h -> acc + Obs.Hist.sum h) 0 hs) *. 1e-6 in
  {
    rs_role = rp.rp_role;
    rs_items = Obs.Hist.count rp.rp_stage;
    rs_busy = seconds [ rp.rp_stage; rp.rp_squash ];
    rs_starved = seconds [ rp.rp_pop_stall ];
    rs_blocked = seconds [ rp.rp_push_stall ];
  }

(* Entries per SPSC ring: the paper's 32-entry queues, doubled to
   amortize cursor traffic. *)
let queue_capacity = 64

(* One row per queue, folded from the [Push] records of its producer's
   ring: the push count and the highest occupancy after a push.  A deals
   iteration [i] to in-queue [i mod r]; B replica [k] alone feeds
   out-queue [k], and a fused run has no out-queue. *)
let queue_rows ~r ~fused rings =
  let pushes ring =
    List.filter (fun (e : Obs.Probe.entry) -> kinds.(e.e_kind) = Push) (Obs.Probe.entries ring)
  in
  let row qs_queue qs_slot es =
    {
      qs_queue;
      qs_slot;
      qs_capacity = queue_capacity;
      qs_high_water = List.fold_left (fun m (e : Obs.Probe.entry) -> max m e.e_a) 0 es;
      qs_pushes = List.length es;
    }
  in
  let from_a = pushes rings.(0) in
  List.init r (fun s ->
      row Obs.Event.In_queue s (List.filter (fun (e : Obs.Probe.entry) -> e.e_b mod r = s) from_a))
  @ if fused then [] else List.init r (fun k -> row Obs.Event.Out_queue k (pushes rings.(k + 1)))

let run ?pool ?(probe = false) ~threads ~name staged =
  let go d p =
    let fused = d = 2 in
    let r = if fused then 1 else d - 2 in
    let n = Staged.iterations staged in
    let accts =
      Array.init (r + 2) (fun k ->
          let prb =
            if probe then Some (Obs.Probe.create ~capacity:(ring_capacity n) ~domain:k ())
            else None
          in
          { origin = 0.; prb })
    in
    let buf = Buffer.create 4096 in
    let squashes = ref 0 and violations = ref 0 in
    let error = Atomic.make None in
    (* Queue element types differ per Staged case, so poisoning reaches
       the queues through closures. *)
    let poison_hooks = ref [] in
    let poison_all () = List.iter (fun f -> f ()) !poison_hooks in
    let guard f () =
      try f () with
      | Spsc.Poisoned -> ()
      | e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)));
        poison_all ()
    in
    let new_queues k =
      let qs = Array.init k (fun _ -> Spsc.create ~capacity:queue_capacity ()) in
      poison_hooks := (fun () -> Array.iter Spsc.poison qs) :: !poison_hooks;
      qs
    in
    (* The role skeleton, written once for both pipeline kinds.  A runs
       [produce]; B runs [exec]; C runs [validate] untimed, then
       [consume] as its stage body, then [finish] after the last
       iteration. *)
    let pipeline ~produce ~exec ~validate ~consume ~finish =
      let a2b = new_queues r in
      let b2c = if fused then [||] else new_queues r in
      let role_a () =
        let acct = accts.(0) in
        for i = 0 to n - 1 do
          let item = stage acct produce i () in
          push_acct acct ~slot:(i mod r) a2b.(i mod r) (i, item)
        done;
        Array.iter Spsc.close a2b
      in
      let commit acct i out = stage acct consume i (validate acct i out) in
      let role_b k () =
        let acct = accts.(k + 1) in
        let rec loop () =
          match pop_acct acct ~slot:k a2b.(k) with
          | None -> Spsc.close b2c.(k)
          | Some (i, item) ->
            push_acct acct ~slot:k b2c.(k) (i, stage acct exec i item);
            loop ()
        in
        loop ()
      in
      let role_c () =
        let acct = accts.(r + 1) in
        for i = 0 to n - 1 do
          match pop_acct acct ~slot:(i mod r) b2c.(i mod r) with
          | None -> failwith "Runtime.Exec: result stream ended early"
          | Some (j, out) ->
            if j <> i then failwith "Runtime.Exec: out-of-order result";
            commit acct i out
        done;
        finish ()
      in
      let role_bc () =
        let acct_b = accts.(1) and acct_c = accts.(2) in
        let rec loop i =
          match pop_acct acct_b ~slot:0 a2b.(0) with
          | None ->
            if i <> n then failwith "Runtime.Exec: item stream ended early";
            finish ()
          | Some (j, item) ->
            if j <> i then failwith "Runtime.Exec: out-of-order item";
            commit acct_c i (stage acct_b exec i item);
            loop (i + 1)
        in
        loop 0
      in
      if fused then [| role_a; role_bc |]
      else Array.concat [ [| role_a |]; Array.init r role_b; [| role_c |] ]
    in
    let roles =
      match staged with
      | Staged.Pure s ->
        pipeline
          ~produce:(fun i () -> s.Staged.produce i)
          ~exec:(fun _ item -> s.Staged.transform item)
          ~validate:(fun _ _ res -> res)
          ~consume:(fun i res -> s.Staged.consume buf i res)
          ~finish:(fun () -> s.Staged.finish buf)
      | Staged.Spec s ->
        (* The committed store.  Only C writes it, growing it on a write
           past its end; B replicas read it without a lock.  Publishing
           a grown array through the [Atomic] makes its copied prefix
           visible to every reader that sees the new array. *)
        let size = List.fold_left (fun m (loc, _) -> max m (loc + 1)) 0 s.Staged.sp_init in
        let store = Atomic.make (Array.make size 0) in
        let committed loc = value (Atomic.get store) loc in
        let set loc v =
          let a = Atomic.get store in
          if loc < Array.length a then a.(loc) <- v
          else begin
            let a = grown a loc 0 in
            a.(loc) <- v;
            Atomic.set store a
          end
        in
        List.iter (fun (loc, v) -> set loc v) s.Staged.sp_init;
        (* The count of committed iterations, published by C after each
           commit's writes. *)
        let commits = Atomic.make 0 in
        let overlays =
          Array.init r (fun _ -> { owner = Array.make size (-1); latest = Array.make size 0 })
        in
        let exec i item =
          let ov = overlays.(i mod r) in
          let reads = ref [] in
          let read loc =
            let v =
              if loc < Array.length ov.owner && ov.owner.(loc) >= Atomic.get commits then
                ov.latest.(loc)
              else committed loc
            in
            reads := (loc, v) :: !reads;
            v
          in
          (* A stale read may make the body raise; C decides whether the
             exception is real. *)
          match s.Staged.sp_exec ~read item with
          | (writes, _) as attempt ->
            List.iter (forward ov i) writes;
            (item, !reads, Ok attempt)
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (item, !reads, Error (e, bt))
        in
        (* Commit-time validation: every value iteration [i] read must
           equal the committed value now that all earlier iterations
           have committed — exactly what the sequential run would have
           read.  A stale read squashes the attempt, and C re-executes
           the iteration against committed state before committing it.
           An attempt that raised without a stale read raises in the
           sequential run too. *)
        let validate acct i (item, reads, attempt) =
          let tv = mark acct in
          let stale =
            List.fold_left (fun n (loc, v) -> if committed loc <> v then n + 1 else n) 0 reads
          in
          note_span acct Validate ~since:tv ~b:i;
          let writes, res =
            if stale = 0 then
              match attempt with
              | Ok attempt -> attempt
              | Error (e, bt) -> Printexc.raise_with_backtrace e bt
            else begin
              incr squashes;
              violations := !violations + stale;
              let since = mark acct in
              let attempt = s.Staged.sp_exec ~read:committed item in
              note_span acct Squash ~since ~b:i;
              attempt
            end
          in
          List.iter (fun (loc, v) -> set loc v) writes;
          Atomic.set commits (i + 1);
          res
        in
        pipeline
          ~produce:(fun i () -> s.Staged.sp_produce i)
          ~exec ~validate
          ~consume:(fun i res -> s.Staged.sp_consume buf i res)
          ~finish:(fun () -> s.Staged.sp_finish ~read:committed buf)
    in
    let origin = now () in
    Array.iter (fun a -> a.origin <- origin) accts;
    Parallel.Pool.parallel_for p ~n:(Array.length roles) (fun k -> guard roles.(k) ());
    let seconds = now () -. origin in
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let rings = Array.of_list (List.filter_map (fun (a : acct) -> a.prb) (Array.to_list accts)) in
    let tl_roles = Array.mapi (role_probe ~r) rings in
    {
      output = Buffer.contents buf;
      stats =
        {
          threads = d;
          replicas = r;
          seconds;
          squashes = !squashes;
          violations = !violations;
          roles = Array.map role_row tl_roles;
        };
      telemetry =
        (if not probe then None
         else
           Some
             {
               tl_roles;
               tl_queues = queue_rows ~r ~fused rings;
               tl_dropped = Array.fold_left (fun acc p -> acc + Obs.Probe.dropped p) 0 rings;
             });
      recording = { loop = name; span_us = int_of_float (seconds *. 1e6); rings };
    }
  in
  match pool with
  | Some p ->
    let d = min threads (Parallel.Pool.size p) in
    if d <= 1 then seq_result staged else go d p
  | None ->
    if threads <= 1 then seq_result staged
    else
      (* One pool slot per role: A + C + the B replicas (fused B+C at
         two domains), so the role count equals [threads]. *)
      Parallel.Pool.with_pool ~domains:threads (fun p -> go threads p)

(* Decode the rings back into the event stream.  Ring [k] belongs to
   role [k], which is also the event's core; the iteration's task ids
   are [3i] (A), [3i + 1] (B), [3i + 2] (C).  Span records are stamped
   at their end, so starts are back-dated by the duration and the
   stream is re-sorted by time. *)
let events res =
  let { loop; span_us; rings } = res.recording in
  if Array.length rings = 0 then []
  else begin
    let r = res.stats.replicas and c = Array.length rings - 1 in
    let decode (e : Obs.Probe.entry) =
      let k = e.e_domain and i = e.e_b and time = e.e_time in
      let stage = if k = 0 then 0 else if k = c then 2 else 1 in
      let task = (3 * i) + stage in
      let start = time - e.e_a in
      match kinds.(e.e_kind) with
      | Stage ->
        let phase = "ABC".[stage] and core = k in
        Obs.Event.Task_start { time = start; task; core; phase; iteration = i; work = 0 }
        :: Obs.Event.Task_finish { time; task; core }
        :: (if k = c then [ Obs.Event.Iter_commit { time; iteration = i } ] else [])
      | Squash ->
        [ Obs.Event.Task_squash { time = start; task = task - 1; core = k; elapsed = 0 } ]
      | Push ->
        let queue = if k = 0 then Obs.Event.In_queue else Obs.Event.Out_queue in
        [ Obs.Event.Queue_push { time; queue; slot = i mod r; occupancy = e.e_a; task } ]
      | Pop ->
        let queue = if k = c then Obs.Event.Out_queue else Obs.Event.In_queue in
        [ Obs.Event.Queue_pop { time; queue; slot = i mod r; occupancy = e.e_a; task = task - 1 } ]
      | Push_stall | Pop_stall | Validate -> []
    in
    Obs.Event.Loop_begin { time = 0; loop }
    :: List.stable_sort
         (fun x y -> Int.compare (Obs.Event.time x) (Obs.Event.time y))
         (List.concat_map decode (Obs.Probe.merge (Array.to_list rings)))
    @ [ Obs.Event.Loop_end { time = span_us; loop; span = span_us } ]
  end

let queue_stat_name qs =
  Printf.sprintf "%s-queue %d" (Obs.Event.queue_name qs.qs_queue) qs.qs_slot

let pp_telemetry stats ppf tl =
  Format.fprintf ppf "telemetry: %d roles, %d queues, %d probe records dropped@,"
    (Array.length tl.tl_roles)
    (List.length tl.tl_queues)
    tl.tl_dropped;
  Array.iteri
    (fun k rp ->
      let rs = stats.roles.(k) in
      Format.fprintf ppf "  role %-3s items=%d busy=%.4fs@," rp.rp_role rs.rs_items
        rs.rs_busy;
      let line label h =
        if Obs.Hist.count h > 0 then
          Format.fprintf ppf "    %-11s %a@," label Obs.Hist.pp h
      in
      line "stage-us" rp.rp_stage;
      line "pop-stall" rp.rp_pop_stall;
      line "push-stall" rp.rp_push_stall;
      line "validate" rp.rp_validate;
      line "squash" rp.rp_squash)
    tl.tl_roles;
  List.iter
    (fun qs ->
      Format.fprintf ppf "  %-12s capacity=%d high-water=%d pushes=%d@,"
        (queue_stat_name qs) qs.qs_capacity qs.qs_high_water qs.qs_pushes)
    tl.tl_queues
