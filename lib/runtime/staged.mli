(** An executable A|B|C pipeline decomposition of a workload.

    Where {!Benchmarks.Study} describes a benchmark as an instrumented
    {e sequential} run whose parallel execution is only simulated, a
    [Staged.t] is the same loop cut into stages that actually run:

    - {b A} ([produce]): the sequential produce stage.  Called with
      iterations in ascending order from a single domain; any carried
      state (input cursor, RNG, mode flags) lives in its closure, so a
      fresh value of {!t} must be built per run.
    - {b B} ([transform] / [sp_exec]): the replicable parallel stage.
      Pure in the [Pure] case; in the [Spec] case it may read and write
      a shared integer store, indexed by non-negative locations, through
      the speculation protocol ({!Exec}) — reads see pre-iteration
      state, writes apply at commit, exactly the versioned-memory
      semantics of the paper.
    - {b C} ([consume]): the sequential in-order consume stage, folding
      results into the observable output buffer.

    The observable output of a run is the final buffer contents, byte
    for byte; {!run_seq} is the sequential reference every parallel
    execution must reproduce exactly. *)

type ('i, 'r) stages = {
  iterations : int;
  produce : int -> 'i;  (** called in order 0..iterations-1 by stage A *)
  transform : 'i -> 'r;  (** pure; runs replicated on B domains *)
  consume : Buffer.t -> int -> 'r -> unit;  (** in iteration order on C *)
  finish : Buffer.t -> unit;  (** trailing summary after the last iteration *)
}

type ('i, 'r) spec_stages = {
  sp_iterations : int;
  sp_init : (int * int) list;
      (** initial committed (location, value) store; locations are
          non-negative here and in every read and write *)
  sp_produce : int -> 'i;
  sp_exec : read:(int -> int) -> 'i -> (int * int) list * 'r;
      (** Stage B body: reads pre-iteration shared state through [read]
          (unknown locations read as 0), returns the (location, value)
          writes to commit plus the result payload.  Must be a pure
          function of the item and the values [read] returned — it may
          be re-executed after a mis-speculation squash.  Under
          {!Exec.run} a speculative attempt may see stale values, values
          no sequential run produces, and may raise on them; such an
          attempt is squashed, and only an exception the sequential
          values also raise reaches the caller. *)
  sp_consume : Buffer.t -> int -> 'r -> unit;
  sp_finish : read:(int -> int) -> Buffer.t -> unit;
      (** May inspect the final committed store. *)
}

type t =
  | Pure : ('i, 'r) stages -> t
  | Spec : ('i, 'r) spec_stages -> t

val iterations : t -> int

val run_seq : t -> string
(** The sequential reference execution: produce, transform, consume
    inline per iteration, in order, on the calling domain. *)

(** {1 Digest helpers shared by the staged benchmarks} *)

val mix : int -> int -> int
(** Deterministic 62-bit hash combine (splitmix-style), identical on
    every domain and box. *)

val mix_string : int -> string -> int

val hex : int -> string
(** Fixed-width lowercase hex of the masked 62-bit value. *)
