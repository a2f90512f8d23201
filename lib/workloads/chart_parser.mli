(** CYK chart parsing over a small context-free grammar — the stand-in
    for 197.parser's link-grammar sentence analysis.

    Each sentence parses independently of every other (the property the
    paper's parallelization exploits); parse cost grows cubically with
    sentence length, so long sentences dominate — exactly the "longest
    sentence" limit the paper reports. *)

type category = S | NP | VP | PP | N | V | P | Det | Adj

val categories : category list

type grammar
(** A grammar in Chomsky normal form: binary rules over categories plus
    lexical assignments for terminal words. *)

val english_like : grammar
(** A fixed toy grammar covering determiner/noun/verb/preposition
    sentences. *)

type parse_result = {
  grammatical : bool;  (** some parse derives S over the whole sentence *)
  chart_entries : int;  (** filled chart cells — a measure of ambiguity *)
  work : int;  (** abstract work: rule applications attempted *)
}

val parse : grammar -> string list -> parse_result
(** Parse a tokenized sentence (lowercase words). *)

val sentence_of_length : Simcore.Rng.t -> int -> string list
(** Generate a grammatical sentence of roughly the requested length from
    {!english_like} (for workload inputs). *)

val scramble : Simcore.Rng.t -> string list -> string list
(** Shuffle a sentence's words — usually making it ungrammatical. *)
