(** Simulator input: a program as serial segments and parallelized loops
    whose dependences have already been resolved into synchronize /
    speculate constraints (removed dependences simply do not appear). *)

type edge = {
  src : int;
  dst : int;
  speculated : bool;
      (** true: the dependence was speculated and dynamically occurred —
          it serializes under the paper's model; false: synchronized *)
  src_offset : int;  (** work offset of the produce within [src] *)
  dst_offset : int;  (** work offset of the consume within [dst] *)
}

type index = private {
  a_of : int array;  (** per iteration: its A task's id, or -1 *)
  c_of : int array;  (** per iteration: its C task's id, or -1 *)
  b_off : int array;
      (** [iters + 1] offsets: iteration [i]'s B tasks sit at
          [b_off.(i) .. b_off.(i + 1) - 1] of [b_ids] and of
          [b_dispatch] *)
  b_ids : int array;  (** B task ids by iteration, descending id within one *)
  b_dispatch : int array;
      (** the same ids by iteration in the order phase A dispatches them:
          ascending [intra], ties by descending id *)
  t_work : int array;  (** per task *)
  t_phase : int array;  (** per task: A = 0, B = 1, C = 2 *)
  t_iter : int array;
  t_intra : int array;
  e_src : int array;  (** per edge, in [edges] order *)
  e_dst : int array;
  e_spec : int array;  (** 1 speculated, 0 synchronized *)
  e_soff : int array;
  e_doff : int array;
  in_off : int array;
      (** [ntasks + 1] offsets: task [t]'s in-edges are
          [in_idx.(in_off.(t)) .. in_idx.(in_off.(t + 1) - 1)] *)
  in_idx : int array;  (** edge numbers by consumer, each in reverse [edges] order *)
  out_off : int array;
  out_idx : int array;  (** edge numbers by producer, each in reverse [edges] order *)
}
(** A loop's iteration structure and dependence adjacency in flat int
    arrays: what the simulator, the oracle and the schedule analyses
    read instead of regrouping [tasks] and [edges] themselves.  Read
    only. *)

type cache

type loop = private {
  name : string;
  tasks : Ir.Task.t array;
  edges : edge list;
  iters : int;  (** iterations: 1 + the largest task iteration, 0 if none *)
  cache : cache;  (** the {!index}, once built *)
}
(** Built only by {!make_loop}.  The cache makes [=] and [Hashtbl.hash]
    on loops depend on whether the index has been built; compare or hash
    fields instead. *)

type segment = Serial of int | Parallel of loop

type t = { program_name : string; segments : segment list }

val make_loop : name:string -> tasks:Ir.Task.t array -> edges:edge list -> loop
(** Validates: task ids are indices; at most one A and one C task per
    iteration; edges reference existing distinct tasks; duplicate
    (src, dst) pairs are merged keeping the strongest constraint
    (synchronized wins over speculated; offsets take the most
    constraining values). *)

val make : name:string -> segments:segment list -> t

val total_work : t -> int
(** Single-threaded execution time. *)

val loop_work : loop -> int

val iterations : loop -> int
(** [iters] *)

val index : loop -> index
(** Built on the first call and kept by the loop, so a thread sweep
    that simulates and checks one loop at many core counts builds it
    once; it dies with the loop.  Safe to call from several domains at
    once: all callers get the same physical index. *)

val pp_summary : Format.formatter -> t -> unit
