(** Persistent bench history: one JSONL line per bench run.

    Each entry records the revision of the measured code, a digest of
    the bench configuration, and per-study simulated numbers (span,
    speedup) plus informational wall-clock seconds.  The simulated
    numbers are checked by the golden snapshots in [test/golden/];
    [scaling] is the anti-scaling gate over the wall-clock totals. *)

type study = {
  study : string;
  threads : int;  (** thread count the numbers were taken at *)
  span : int;
  speedup : float;
  seconds : float;  (** wall-clock, informational only *)
}

type gc_stats = {
  gc_minor_words : float;
      (** minor-heap words allocated across {e all} domains (the pool
          sums per-worker deltas; the main domain's [Gc.quick_stat]
          covers the rest) *)
  gc_promoted_words : float;
  gc_major_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}

type real_point = {
  rp_study : string;
  rp_threads : int;  (** real domain count of the measured run *)
  rp_seconds : float;  (** measured wall-clock of the parallel section *)
  rp_speedup : float;  (** sequential wall-clock over [rp_seconds] *)
  rp_sim_speedup : float;  (** simulator's prediction at the same threads *)
  rp_ok : bool;  (** parallel output byte-identical to sequential *)
  rp_squashes : int;  (** mis-speculation squashes during the run *)
}

type entry = {
  rev : string;
      (** short git revision of the measured code, with ["+dirty"] when
          it was uncommitted (see {!current_rev}), or ["unknown"] *)
  config : string;  (** digest of the bench configuration *)
  scale : string;
  jobs : int;
  total_seconds : float;
  gc : gc_stats option;
      (** whole-run GC accounting; [None] on entries written without
          [--gc-stats] (and on all historical lines) *)
  studies : study list;
  real : real_point list;
      (** measured-on-real-domains points; non-empty only on entries
          written by [repro validate-real].  Entries with a non-empty
          [real] block record wall-clock measurements of the runtime,
          not of the simulator; [scaling] skips them. *)
}

val entry_to_json : entry -> Obs.Json.t

val entry_of_json : Obs.Json.t -> (entry, string) result

val append : string -> entry -> unit
(** Append one line to the JSONL file, creating it if missing. *)

val load : string -> (entry list, string) result
(** All entries in file order; a missing file is [Ok []]; a malformed
    line is an [Error] naming the line number. *)

val rev_label : head:string -> string list -> string
(** [rev_label ~head status] labels the code a run measured: [head],
    the short HEAD revision, with ["+dirty"] appended when a line of
    [status] (the output of [git status --porcelain]) names a tracked
    file that differs from HEAD, other than the [BENCH_*] records at
    the root.  Untracked (["??"]) and ignored (["!!"]) lines never
    count. *)

val current_rev : unit -> string
(** [rev_label] for the git checkout around the working directory;
    ["unknown"] outside one.  Call it before the run writes its
    [BENCH_*] records. *)

(** The anti-scaling verdict: the newest simulated entry with
    [jobs > 1] against the newest [jobs = 1] entry of the same [rev]
    (else the newest [jobs = 1] entry of any rev).  Entries with a
    non-empty [real] block are ignored. *)
type scaling =
  | Nothing_to_compare of string  (** no such entry: ["jobs>1"] or ["jobs=1"] *)
  | Compared of {
      par : entry;
      seq : entry;
      same_rev : bool;  (** [seq.rev = par.rev] *)
      ratio : float;  (** [par.total_seconds /. seq.total_seconds], 1 when [seq] took no time *)
      ok : bool;  (** [ratio <= 1 + tolerance] *)
    }

val scaling : tolerance:float -> entry list -> scaling
(** [scaling ~tolerance entries], [entries] in file order. *)
