type misspec_policy = Serialize | Squash

type policy = { misspec : misspec_policy; forwarding : bool }

let default_policy = { misspec = Serialize; forwarding = false }

type sched_entry = { s_task : int; s_core : int; s_start : int; s_finish : int }

type loop_result = {
  span : int;
  busy : int array;
  misspec_delayed : int;
  squashes : int;
  in_queue_high_water : int;
  out_queue_high_water : int;
  b_tasks_per_core : int array;
  schedule : sched_entry list;
}
