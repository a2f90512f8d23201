(** Reference interpreter for {!Body}.

    Executes a body for a given number of loop iterations, fully
    deterministically (the [Dynamic] index hash and [Ybranch] cut policy
    are pure functions of the iteration), producing both a raw access
    stream and a {!Profiling.Access_log} compatible with the memory
    profiler: task ids are [iteration * region_count + region], writes
    carry globally unique values (so no store is silent and no value is
    predictable), and offsets advance with [Work].

    Two Y-branch modes bracket the semantics the analyzer must cover:
    [`Never] models the {e original} sequential program, whose heuristic
    branches are (modelled as) never taken — this is the execution that
    defines each dependence's manifestation probability; [`Compiler]
    models the transformed program, which takes every Y-branch at its
    derived cut interval.  {!Analyze} must be sound against both. *)

type cell = Cell_scalar of int | Cell_elem of int * int
    (** A concrete location: a scalar, or one concrete array element. *)

type access = {
  a_iter : int;
  a_region : int;
  a_op : [ `R | `W ];
  a_cell : cell;
  a_ctrl : bool;  (** the read feeds a [Test] branch condition *)
  a_group : string option;  (** enclosing commutative group *)
}

type branch = { br_region : int; br_base : Body.base; br_taken : bool }
    (** One dynamic evaluation of a [Test] condition, in execution
        order; the stream's outcome-change rate estimates the
        misprediction rate of the control dependences it induces. *)

type result = {
  accesses : access list;  (** sequential execution order *)
  branches : branch list;
  log : Profiling.Access_log.t;
  loc_names : (int * string) list;  (** access-log location id -> name *)
}

val run :
  ?commutative:Annotations.Commutative.t ->
  ?ybranch:[ `Compiler | `Never ] ->
  iterations:int ->
  Body.t ->
  result
(** Default [ybranch] is [`Never].  Without [?commutative], calls carry
    no group. *)

val cell_base : cell -> Body.base
