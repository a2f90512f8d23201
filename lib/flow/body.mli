(** Structured loop-body IR for the static dependence analyzer.

    A {!t} describes one parallelizable loop the way the paper's compiler
    sees it: the body is split into {e regions} (the candidate PDG nodes,
    in intra-iteration execution order), and each region is a small
    structured program over {e abstract locations} — named scalars and
    affine-indexed abstract arrays.  The IR deliberately has no values or
    arithmetic beyond what dependence analysis needs: reads, writes,
    opaque [Work] costs, structured control ([If]/[While]), calls that may
    carry {!Annotations.Commutative} markers, and Y-branch guarded
    regions ({!Annotations.Ybranch}).

    The same body drives two engines that are kept honest against each
    other: {!Interp} executes it and logs every access
    ({!Profiling.Access_log}-compatible), and {!Analyze} predicts, purely
    statically, every dependence any execution can exhibit. *)

type storage = Reg | Mem
    (** Storage class of a scalar: [Reg] scalars induce [Register]-kind
        dependences (unbreakable induction/accumulator recurrences),
        [Mem] scalars induce [Memory]-kind ones. *)

type index =
  | Fixed of int  (** the same element every iteration *)
  | Affine of { stride : int; offset : int }
      (** element [stride * i + offset] on iteration [i] *)
  | Dynamic of { salt : int; range : int }
      (** data-dependent element in [\[0, range)]; statically opaque.
          The interpreter derives it deterministically from
          [(iteration, salt)]. *)

type addr = Scalar of int | Elem of int * index
    (** A scalar by id, or element [index] of an abstract array by id. *)

type cond =
  | Every of { period : int; phase : int }
      (** taken when [(i + phase) mod period = 0]; models a branch whose
          rate is profiled but whose predicate is statically opaque *)
  | Test of { addr : addr; modulus : int }
      (** data-dependent branch: reads [addr] and takes the branch when
          the value is divisible by [modulus].  The read is a {e control
          consumption}: dependences into it get kind [Control]. *)

type stmt =
  | Work of int  (** opaque computation costing [n] work units *)
  | Read of addr
  | Write of addr
  | If of { cond : cond; then_ : stmt list; else_ : stmt list }
  | While of { trips : int; body : stmt list }
      (** bounded repetition; [trips = 0] is statically dead code *)
  | Call of { fn : string; body : stmt list }
      (** call whose accesses run inside [fn]'s commutative group when
          the registry annotates [fn] *)
  | Ybranch of { probability : float; body : stmt list }
      (** [@YBRANCH(probability)] guarded code: the compiler may take it
          on any iteration, the original program (modelled) never does *)

type region = { r_label : string; r_stmts : stmt list }

type t = {
  b_name : string;
  b_scalars : (string * storage) array;
  b_arrays : string array;
  b_regions : region array;
}

type base = B_scalar of int | B_array of int
    (** The alias-partition a location belongs to: distinct bases never
        alias; accesses within one base are compared index-wise. *)

val base_of_addr : addr -> base

val base_name : t -> base -> string

val storage_of_base : t -> base -> storage
(** Arrays are always [Mem]. *)

val validate : t -> (unit, string) result
(** Structural well-formedness: location ids in range, [Every] period
    >= 1 and phase >= 0, [Test] modulus >= 1, [While] trips >= 0,
    [Ybranch] probability in (0, 1], [Dynamic] range >= 1, non-negative
    [Work], at least one region. *)

val weights : t -> float array
(** Each region's share of the expected work per iteration, summing to
    1 (uniform when the total is 0): [If] branches weighted by their
    static rate ([1/period], [1/modulus]), [While] multiplied by trips,
    [Ybranch] by the compiler's cut rate [1/interval]. *)

val drop_write : t -> t option
(** The audit's corrupted-IR mutation: remove the first [Write] in
    depth-first region order, yielding a body whose {e analysis} misses a
    store the {e original} body still executes.  [None] if the body has
    no write. *)

val pp : Format.formatter -> t -> unit
