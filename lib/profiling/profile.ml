type open_task = {
  task_id : int;
  task_iteration : int;
  task_phase : Ir.Task.phase;
  task_intra : int;
  mutable task_work : int;
}

type open_loop = {
  open_loop_name : string;
  mutable tasks_rev : Ir.Task.t list;
  mutable deps_rev : Ir.Dep.t list;
  loop_log : Access_log.t;
  mutable next_task : int;
  mutable last_iteration : int;
}

type t = {
  ctx_name : string;
  loc_ids : (string, int) Hashtbl.t;
  loc_names : (int, string) Hashtbl.t;
  mutable next_loc : int;
  (* Current value of every location, persisting across loops so that
     silent-store detection sees initializations made before a loop. *)
  values : (int, int) Hashtbl.t;
  mutable segments_rev : Ir.Trace.segment list;
  mutable serial_acc : int;
  mutable loop : open_loop option;
  mutable task : open_task option;
  mutable group : string option;
  mutable logs_rev : (string * Access_log.t) list;
}

let create ~name =
  {
    ctx_name = name;
    loc_ids = Hashtbl.create 32;
    loc_names = Hashtbl.create 32;
    next_loc = 0;
    values = Hashtbl.create 64;
    segments_rev = [];
    serial_acc = 0;
    loop = None;
    task = None;
    group = None;
    logs_rev = [];
  }

let name t = t.ctx_name

let loc t lname =
  match Hashtbl.find_opt t.loc_ids lname with
  | Some id -> id
  | None ->
    let id = t.next_loc in
    t.next_loc <- id + 1;
    Hashtbl.add t.loc_ids lname id;
    Hashtbl.add t.loc_names id lname;
    id

let loc_id t lname = Hashtbl.find_opt t.loc_ids lname

let loc_name t id =
  match Hashtbl.find_opt t.loc_names id with
  | Some n -> n
  | None -> raise Not_found

let flush_serial t =
  if t.serial_acc > 0 then begin
    t.segments_rev <- Ir.Trace.Serial t.serial_acc :: t.segments_rev;
    t.serial_acc <- 0
  end

let serial_work t w =
  if w < 0 then invalid_arg "Profile.serial_work: negative";
  match t.loop with
  | Some _ -> invalid_arg "Profile.serial_work: inside a loop"
  | None -> t.serial_acc <- t.serial_acc + w

let begin_loop t lname =
  (match t.loop with
  | Some _ -> invalid_arg "Profile.begin_loop: loops do not nest"
  | None -> ());
  flush_serial t;
  let loop_log = Access_log.create () in
  (* Seed the log with the current contents of memory so the replayer
     knows pre-loop values (silent stores, first predictions). *)
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) t.values []
  |> List.sort compare
  |> List.iter (fun (l, v) ->
         Access_log.record loop_log ~task:(-1) ~loc:l ~op:(Access_log.Write v) ~offset:0 ());
  t.loop <-
    Some
      {
        open_loop_name = lname;
        tasks_rev = [];
        deps_rev = [];
        loop_log;
        next_task = 0;
        last_iteration = -1;
      }

let the_loop t what =
  match t.loop with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Profile.%s: no open loop" what)

let end_loop t =
  (match t.task with
  | Some _ -> invalid_arg "Profile.end_loop: a task is still open"
  | None -> ());
  let l = the_loop t "end_loop" in
  let loop : Ir.Trace.loop =
    {
      Ir.Trace.loop_name = l.open_loop_name;
      tasks = Array.of_list (List.rev l.tasks_rev);
      explicit_deps = List.rev l.deps_rev;
    }
  in
  t.segments_rev <- Ir.Trace.Loop loop :: t.segments_rev;
  t.logs_rev <- (l.open_loop_name, l.loop_log) :: t.logs_rev;
  t.loop <- None

let begin_task t ~iteration ~phase ?(intra = 0) () =
  (match t.task with
  | Some _ -> invalid_arg "Profile.begin_task: tasks do not nest"
  | None -> ());
  let l = the_loop t "begin_task" in
  if iteration < l.last_iteration then
    invalid_arg "Profile.begin_task: iterations must be non-decreasing";
  l.last_iteration <- iteration;
  let id = l.next_task in
  l.next_task <- id + 1;
  t.task <-
    Some { task_id = id; task_iteration = iteration; task_phase = phase; task_intra = intra;
           task_work = 0 };
  id

let end_task t =
  match t.task with
  | None -> invalid_arg "Profile.end_task: no open task"
  | Some task ->
    let l = the_loop t "end_task" in
    let tk =
      Ir.Task.make ~id:task.task_id ~iteration:task.task_iteration ~phase:task.task_phase
        ~intra:task.task_intra ~work:task.task_work ()
    in
    l.tasks_rev <- tk :: l.tasks_rev;
    t.task <- None

let work t w =
  if w < 0 then invalid_arg "Profile.work: negative";
  match t.task with
  | Some task -> task.task_work <- task.task_work + w
  | None -> (
    match t.loop with
    | Some _ -> () (* out-of-task work inside a loop: pipeline overhead, ignored *)
    | None -> t.serial_acc <- t.serial_acc + w)

(* Inside a loop every access needs a task: the log has no owner for one
   made between tasks. *)
let record_access t what ~loc_id ~op =
  match t.loop with
  | None -> ()
  | Some l -> (
    match t.task with
    | Some task ->
      Access_log.record l.loop_log ~task:task.task_id ~loc:loc_id ~op ?group:t.group
        ~offset:task.task_work ()
    | None -> invalid_arg (Printf.sprintf "Profile.%s: inside a loop but no open task" what))

let read t loc_id = record_access t "read" ~loc_id ~op:Access_log.Read

let write t loc_id v =
  record_access t "write" ~loc_id ~op:(Access_log.Write v);
  Hashtbl.replace t.values loc_id v

let add_dep t ~src ~dst ~kind =
  let l = the_loop t "add_dep" in
  l.deps_rev <- Ir.Dep.make ~src ~dst ~kind () :: l.deps_rev

let commutative t ~group f =
  (match t.group with
  | Some _ -> invalid_arg "Profile.commutative: sections do not nest"
  | None -> ());
  t.group <- Some group;
  Fun.protect ~finally:(fun () -> t.group <- None) f

let trace t =
  (match (t.loop, t.task) with
  | None, None -> ()
  | _ -> invalid_arg "Profile.trace: a loop or task is still open");
  flush_serial t;
  { Ir.Trace.name = t.ctx_name; segments = List.rev t.segments_rev }

let logs t = List.rev t.logs_rev

let log_of t lname =
  match List.assoc_opt lname t.logs_rev with
  | Some l -> l
  | None -> raise Not_found
