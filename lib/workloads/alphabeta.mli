(** Alpha-beta game-tree search over a synthetic deterministic game —
    the stand-in for 186.crafty's [Search]/[SearchRoot].

    Positions are 64-bit hashes; the move list, branching factor and leaf
    evaluations are all derived deterministically from the position hash,
    so the game needs no board representation yet produces realistic,
    highly variable subtree sizes once alpha-beta pruning and move
    ordering are in play — the variability that limits crafty's
    root-splitting parallelization in the paper.

    A transposition cache is supported; in the parallel study its lookup
    function is the one annotated [Commutative]. *)

type position = int64

val root : seed:int -> position

val moves : position -> position list
(** Children in move order; between 6 and 18 of them, derived from the
    position hash. *)

val eval : position -> int
(** Static evaluation in [-1000, 1000]. *)

type cache

val create_cache : unit -> cache

val cache_size : cache -> int

val cache_entries : cache -> (position * int * int) list
(** Every stored [(position, depth, value)], sorted. *)

type stats = {
  nodes : int;  (** nodes visited — the abstract work of a search *)
  cache_hits : int;
  cache_stores : int;
}

val search :
  ?cache:cache -> depth:int -> ?alpha:int -> ?beta:int -> position -> int * stats
(** Negamax with alpha-beta pruning and static move ordering. *)

val best_root_move : ?cache:cache -> depth:int -> position -> position * int * stats
(** The move an engine would play: argmax over root moves of the negated
    child search.  Deterministic. *)
