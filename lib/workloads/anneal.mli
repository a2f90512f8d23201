(** Simulated-annealing placement — the shared substrate behind 175.vpr's
    [try_place]/[try_swap] and 300.twolf's [uloop]/[ucxx2].

    Blocks live on a grid; nets connect blocks; cost is the sum of net
    half-perimeter bounding boxes.  A swap move picks a random block and a
    random destination (re-rolling while the destination equals the
    block's own position — the variable number of RNG calls the paper's
    Commutative annotation tames), evaluates the cost delta of the
    affected nets, and accepts improving moves always and worsening moves
    with a threshold probability (the temperature).

    The per-swap report lists exactly which blocks and nets the move read
    and (when accepted) wrote, so the instrumented drivers can reproduce
    the paper's alias-misspeculation pattern: high acceptance rates early
    in the schedule cause conflict storms, low rates later let iterations
    run in parallel. *)

type t

val create : seed:int -> blocks:int -> grid:int -> nets:int -> t
(** Random initial placement; each net connects 2-5 distinct blocks. *)

val block_count : t -> int

val total_cost : t -> int

type swap = {
  accepted : bool;
  block : int;  (** the moved block *)
  partner : int option;  (** occupant of the destination, if any *)
  nets_read : int list;  (** nets whose cost the move evaluated *)
  rng_calls : int;  (** calls to the pseudo-random generator *)
  cost_delta : int;
  work : int;  (** abstract work units *)
}

val try_swap : t -> threshold:float -> swap
(** One annealing move at acceptance threshold in [0,1] for worsening
    moves.  Mutates the placement when accepted.  Deterministic given the
    creation seed and call sequence. *)

val cost_is_consistent : t -> bool
(** Recompute the cost from scratch and compare with the incrementally
    maintained value. *)
