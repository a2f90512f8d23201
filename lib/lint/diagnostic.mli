(** Typed lint diagnostics.

    Every finding any lint pass produces is one value of {!t}: a kind
    from the fixed taxonomy, a severity, where it was found, a one-line
    message, and a one-line fix hint.  The taxonomy:

    - [Race] — conflicting accesses between tasks the partition runs
      concurrently, with no covering plan mechanism;
    - [Unbroken_dep] — a loop-carried dependence the partition needs
      broken (internal to the replicated stage, or crossing stages
      backward) that no enabled breaker, queue, or serial order covers;
    - [Bad_annotation] — malformed or unhonoured annotation metadata
      (breaker/kind mismatches, probabilities outside [0,1], Commutative
      groups missing from the plan's registry or lacking rollbacks);
    - [Stage_closure] — the partition itself is inconsistent (stages do
      not tile the PDG, non-replicable nodes in the replicated stage,
      intra-iteration edges pointing backward across stages);
    - [Deadlock_risk] — a plan shape known to degrade or wedge the
      runtime (speculation into a serial stage: squash is unavailable
      there, so recovery serializes — the PR-4 deadlock class);
    - [Pdg_mismatch] — the hand-written registry PDG disagrees with the
      statically inferred one ([Lint.Audit]): a missing must-dependence
      is an error, a missing conservative edge or drifted
      probability/weight a warning. *)

type kind =
  | Race
  | Unbroken_dep
  | Bad_annotation
  | Stage_closure
  | Deadlock_risk
  | Pdg_mismatch

type severity = Error | Warning

type t = {
  kind : kind;
  severity : severity;
  where : string;  (** e.g. ["edge compress->compress"], ["loop 'deflate'"] *)
  message : string;
  hint : string;  (** one-line suggested fix; may be empty *)
}

val make :
  kind:kind -> severity:severity -> where:string -> ?hint:string -> string -> t

val is_error : t -> bool

val errors : t list -> t list

val warnings : t list -> t list

val sort : t list -> t list
(** Errors first, then by kind, location, message.  Deterministic. *)

val exit_code : ?strict:bool -> t list -> int
(** The [repro lint] exit contract: 0 when nothing blocks, 1 when any
    error-severity finding is present ([~strict:true] promotes warnings
    to blocking as well). *)

val pp : Format.formatter -> t -> unit

val pp_report : Format.formatter -> t list -> unit
(** All findings (sorted) followed by the summary line. *)

val summary : t list -> string
(** e.g. ["2 errors, 1 warning"] or ["clean"]. *)

val to_json : t -> Obs.Json.t
(** One finding as an object with stable field order
    [kind, severity, where, message, hint] — shared by
    [repro lint --json] and [repro audit-pdg --json]. *)

val report_to_json : t list -> Obs.Json.t
(** Sorted findings plus the summary counts, as one object
    [summary, errors, warnings, findings]. *)
