(** Domain generators: random well-formed simulator inputs and IR
    structures, built on [QCheck2.Gen].

    Loops are generated through a printable descriptor ({!loop_desc}) so
    a shrunk counterexample can be shown to the user; [build_loop] drops
    any edge whose endpoint was shrunk away, so every shrink candidate is
    still a well-formed loop. *)

type loop_desc = {
  ld_iters : (int option * int list * int option) list;
      (** per-iteration (A work, B works, C work); [None] elides the
          phase for that iteration *)
  ld_edges : (int * int * int * int * bool * int * int) list;
      (** (src iter, src position, dst iter, dst position, speculated,
          src_offset, dst_offset) — B-to-B cross-iteration edges; a
          position counts the iteration's B tasks from 0 *)
  ld_intra : int list;
      (** the B tasks' [intra] values in task-id order, drawn from
          [0, max_bs - 1] so that one iteration's B tasks can share
          [intra] or list it in descending order; a B task past the end
          of the list takes its position *)
}

val pp_loop_desc : Format.formatter -> loop_desc -> unit

val show_loop_desc : loop_desc -> string

val build_loop : ?name:string -> loop_desc -> Sim.Input.loop
(** Materialise a descriptor; dangling or non-forward edges are dropped. *)

val loop_desc :
  ?max_iters:int ->
  ?max_bs:int ->
  ?max_work:int ->
  ?edge_factor:int ->
  ?offsets:bool ->
  unit ->
  loop_desc QCheck2.Gen.t
(** Up to [edge_factor] draws of edges, each a fan of one to four edges
    that share a source B task or a destination B task. *)

val loop :
  ?name:string ->
  ?max_iters:int ->
  ?max_bs:int ->
  ?max_work:int ->
  ?edge_factor:int ->
  ?offsets:bool ->
  unit ->
  Sim.Input.loop QCheck2.Gen.t

val input : ?max_segments:int -> unit -> Sim.Input.t QCheck2.Gen.t
(** Serial and parallel-loop segments mixed. *)

val config : ?max_cores:int -> unit -> Machine.Config.t QCheck2.Gen.t
(** Cores shrink toward 1, queue capacity toward 32 (non-constraining),
    latency toward 0. *)

val policy : Sim.Sched.policy QCheck2.Gen.t

val trace : ?max_segments:int -> unit -> Ir.Trace.t QCheck2.Gen.t
(** Always passes [Ir.Trace.validate]. *)

val pdg : ?max_nodes:int -> ?breakers:bool -> ?self_deps:bool -> unit -> Ir.Pdg.t QCheck2.Gen.t
(** Acyclic (edges point from lower to higher ids), normalised weights.
    [breakers] (default false) decorates loop-carried edges with
    kind-appropriate breakers; [self_deps] (default false) adds
    loop-carried self-edges, so the graph is no longer forward-only. *)

val flow_commutative_fn : string
(** The [Call] function name the generator sometimes emits; annotate it
    in a {!Annotations.Commutative} registry to exercise the
    commutative-group paths of the analyzer and interpreter. *)

val flow_body :
  ?max_regions:int -> ?max_stmts:int -> ?max_depth:int -> unit -> Flow.Body.t QCheck2.Gen.t
(** Random loop-body IR, always passing [Flow.Body.validate]: 1-3
    scalars of either storage, up to 2 arrays, [max_regions] (default 3)
    regions of statement lists nested up to [max_depth] (default 2)
    levels of If/While/Call/Ybranch.  Shrinks by dropping trailing
    statements and simplifying indices. *)
