(** Realize a candidate plan as a simulator loop.

    The profiled traces carry the benchmarks' {e hand} decomposition in
    their task phases, so they cannot express a different stage
    assignment.  The planner tournament instead synthesizes a loop
    directly from the static PDG and a candidate partition: one task per
    non-empty stage per iteration, weighted by the stage's share of the
    loop body, plus the dependence edges the plan leaves visible:

    - a surviving loop-carried edge between two different stages becomes
      a synchronized edge from the producer stage's task in iteration
      [i] to the consumer stage's task in iteration [i + 1] (same-stage
      carried edges are implicit in the serial A/C chains);
    - an edge broken by an enabled {e speculative} breaker (alias,
      value, control, silent store) becomes a speculated cross-iteration
      edge on the iterations where it dynamically occurs — its PDG
      probability spread deterministically over the iteration space —
      except same-serial-stage edges, already ordered by the chain;
    - edges broken by annotations (commutative, Y-branch) are removed,
      and surviving intra-iteration forward edges are implicit in the
      pipeline structure (A dispatches B, C commits after B).

    Every candidate in a tournament is realized through this one model,
    so simulated speedups are comparable across partitioners and breaker
    sets, and the result is a plain {!Input.loop} the oracle can check. *)

val loop :
  Ir.Pdg.t ->
  partition:Dswp.Partition.t ->
  enabled:(Ir.Pdg.breaker -> bool) ->
  iterations:int ->
  Input.loop
(** Normalized stage weights are scaled by 100 to integer work units;
    a non-empty stage with positive weight gets at least 1.  An edge
    whose PDG record carries [distance = Some d] synchronizes (or,
    speculated, squashes) producer iteration [i] against consumer
    iteration [i + d] instead of the conservative [i + 1].

    Raises [Invalid_argument] on negative [iterations]. *)
