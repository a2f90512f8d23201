(** Dynamic memory dependence extraction.

    Replays an access log under versioned-memory semantics: only
    read-after-write dependences across distinct tasks matter (WAR and WAW
    are eliminated by privatization in the TLS memory subsystem the paper
    assumes), silent stores optionally do not count as writes, and each
    edge is annotated with enough information for the speculation layer to
    resolve it: the commutative group it occurred under, whether a
    last-value predictor would have predicted the read, and the work-unit
    offsets needed to model eager value forwarding. *)

type edge = {
  src : int;  (** writing task *)
  dst : int;  (** reading task *)
  loc : int;
  group : string option;
      (** [Some g] when both the write and the read happened inside
          commutative sections of the same group [g] *)
  silent : bool;  (** the producing store wrote the value already present *)
  predicted : bool;
      (** the value read equals the value the previous cross-task read of
          this location observed (a last-value predictor succeeds) *)
  src_offset : int;  (** work offset of the write within [src] *)
  dst_offset : int;  (** work offset of the read within [dst] *)
  distance : int option;
      (** iteration distance [iter dst - iter src] when [analyze] was
          given [?iteration_of]; the dynamic counterpart of the static
          distance lattice ([Flow.Analyze.dist]), so lint findings can be
          cross-checked against inferred distances *)
}

type config = {
  silent_stores : bool;
      (** filter stores that do not change the stored value (hardware
          silent-store detection, Lepak & Lipasti); default true *)
}

val default_config : config

val analyze : ?config:config -> ?iteration_of:(int -> int) -> Access_log.t -> edge list
(** Extract one edge per (src task, dst task, loc) triple, keeping the
    earliest-read instance (the most constraining one for scheduling).
    Edges are returned in a deterministic order.  [?iteration_of] maps a
    task id to its loop iteration; when given, each edge records its
    iteration [distance]. *)

val cross_iteration : Ir.Trace.loop -> edge list -> edge list
(** Keep only edges whose endpoints belong to different iterations —
    the loop-carried dependences that block parallelization. *)
