(** Schedule-level data shared by the simulator and its oracle.

    [Pipeline] produces these values and re-exports the types under its
    own name; [Oracle] consumes them.  Keeping them in a leaf module lets
    the oracle validate every schedule the pipeline emits without a
    dependency cycle between the two. *)

type misspec_policy = Serialize | Squash

type policy = { misspec : misspec_policy; forwarding : bool }

val default_policy : policy
(** [Serialize], no forwarding — the paper's model. *)

type sched_entry = {
  s_task : int;
  s_core : int;
  s_start : int;
  s_finish : int;
}
(** Final (non-squashed) execution interval of one task. *)

type loop_result = {
  span : int;  (** parallel execution time of the loop *)
  busy : int array;  (** per-core busy work units (includes squashed work) *)
  misspec_delayed : int;  (** tasks whose start a speculated edge delayed *)
  squashes : int;  (** re-executions under [Squash] *)
  in_queue_high_water : int;
  out_queue_high_water : int;
  b_tasks_per_core : int array;  (** B tasks executed per B core *)
  schedule : sched_entry list;
      (** one entry per task, in completion order; intervals on one core
          never overlap *)
}
