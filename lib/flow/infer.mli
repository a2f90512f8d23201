(** PDG synthesis from the static analysis.

    [run] turns an analyzed body into an {!Ir.Pdg.t} shaped like the
    hand-written registry PDGs: one node per region (ids are region
    indices, weights the normalized expected [Work] costs), one edge per
    aggregated dependence, breakers from the analyzer's eligibility
    rules, and [distance] attached when the lattice pins a carried edge
    to a minimum distance [>= 2].  A node is replicable exactly when all
    its carried self-dependences carry breakers.

    Edge probabilities are {e measured}: the reference interpreter runs
    the original ([`Never] Y-branch mode) program and each dependence's
    manifestation rate — or, for control dependences, the outcome-change
    (misprediction) rate of the consuming branch — becomes the edge
    probability, replacing the analyzer's static must/may default.  The
    same replay yields the per-region-pair carried distance histograms
    that [repro infer] prints. *)

type result = {
  body : Body.t;
  analysis : Analyze.t;
  pdg : Ir.Pdg.t;
  rates : (Analyze.dep * float) list;
      (** measured probability per analyzed dep, in {!Analyze.t} order *)
  histograms : ((int * int) * (int * float) list) list;
      (** per (src region, dst region): normalized histogram of observed
          carried distances, distances ascending *)
  hist_totals : ((int * int) * int) list;
      (** observation count behind each histogram *)
  iterations : int;  (** sample size the measurements used *)
}

val run :
  ?commutative:Annotations.Commutative.t ->
  ?iterations:int ->
  Body.t ->
  result
(** Default [iterations] 200 (minimum 8 enforced). *)
