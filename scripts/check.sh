#!/usr/bin/env bash
# Tier-1 gate plus an end-to-end smoke run of the benchmark harness.
#
#   scripts/check.sh            # build, tests, prop tests, bench smoke
#   REPRO_JOBS=8 scripts/check.sh
#   CHECK_SEED=1234 scripts/check.sh   # re-seed every randomized property
#
# Every schedule simulated by the tests and the bench smoke is re-checked
# by Sim.Oracle (SIM_VALIDATE=1).  The @prop alias runs each randomized
# property at 1000 cases; a failure prints the CHECK_SEED that replays
# its minimal counterexample.
#
# The bench smoke regenerates every table/figure at medium scale and
# writes BENCH_pipeline.json (jobs used, wall-clock per study) so each
# PR leaves a perf data point behind.
set -euo pipefail
cd "$(dirname "$0")/.."

# Validate every simulated schedule end to end.
export SIM_VALIDATE=1

# Re-seed the property suite when the caller asks for fresh inputs.
if [[ -n "${CHECK_SEED:-}" ]]; then
  export CHECK_SEED
  echo "check.sh: property seed CHECK_SEED=${CHECK_SEED}"
fi

# Job count for the parallel bench smoke (the sequential smoke always
# runs at 1).  Defaults to 4 so the scaling gate below compares a real
# multi-domain run against the sequential baseline.
SCALE_JOBS="${REPRO_JOBS:-4}"
echo "check.sh: scaling smoke at REPRO_JOBS=1 and REPRO_JOBS=${SCALE_JOBS}"

# Whether the anti-scaling gate can be *enforced* depends on the
# hardware: with fewer cores than SCALE_JOBS the domains time-slice one
# core and every minor collection pays a stop-the-world barrier against
# descheduled domains, so wall clock measures the scheduler, not the
# harness.  On such a box the gate still runs and prints the ratio but
# a bad ratio is reported, not fatal (an explicit SCALING_TOLERANCE
# re-enables enforcement); with enough cores it is a hard gate.
cores="$(getconf _NPROCESSORS_ONLN 2> /dev/null || echo 1)"
scaling_enforce=1
if [[ -z "${SCALING_TOLERANCE:-}" && "$cores" -lt "$SCALE_JOBS" ]]; then
  scaling_enforce=0
  echo "check.sh: ${cores} core(s) < ${SCALE_JOBS} jobs — scaling gate is informational on this box"
fi

dune build
dune runtest
dune build @prop

# Bench smoke, twice in the same session: sequential, then parallel.
# Both append to BENCH_history.jsonl at the same revision, which is
# exactly the same-rev pair the --scaling gate wants; stdout must be
# byte-identical between the two runs (it is diffed below).
#
# These two runs are the perf record, so they measure the simulator
# hot path alone: SIM_VALIDATE is off (the oracle re-simulates every
# schedule with allocation-heavy bookkeeping, which would swamp the
# scaling measurement with GC-barrier noise).  Oracle coverage comes
# from dune runtest / @prop above and the trace + lint stages below,
# all of which keep SIM_VALIDATE=1.
bench_j1="$(mktemp -t bench_j1.XXXXXX.txt)"
bench_jn="$(mktemp -t bench_jn.XXXXXX.txt)"
SIM_VALIDATE=0 REPRO_JOBS=1 dune exec bench/main.exe -- quick > "$bench_j1"
SIM_VALIDATE=0 REPRO_JOBS="$SCALE_JOBS" dune exec bench/main.exe -- quick > "$bench_jn"
if ! diff -q "$bench_j1" "$bench_jn" > /dev/null; then
  echo "check.sh: bench stdout differs between jobs=1 and jobs=${SCALE_JOBS}:" >&2
  diff "$bench_j1" "$bench_jn" >&2 || true
  exit 1
fi
rm -f "$bench_j1" "$bench_jn"

# Trace smoke: run one registry study with SIM_TRACE set, then parse the
# emitted Chrome trace back and assert it has slices + counter tracks.
trace_tmp="$(mktemp -t sim_trace.XXXXXX.json)"
hist_tmp="$(mktemp -t bench_hist.XXXXXX.jsonl)"
hist_bad="$(mktemp -t bench_hist_bad.XXXXXX.jsonl)"
trap 'rm -f "$trace_tmp" "$hist_tmp" "$hist_bad"' EXIT
SIM_TRACE="$trace_tmp" dune exec bin/repro.exe -- run -b 164.gzip -s small > /dev/null 2>&1
dune exec scripts/validate_trace.exe -- "$trace_tmp"

# Static-analysis gate: every registry benchmark's shipped (PDG, plan,
# profile) triple must lint clean — plan soundness, annotation hygiene,
# and the happens-before race replay of its access logs.
for b in $(dune exec bin/repro.exe -- list 2> /dev/null | awk '/^[0-9]+\./ {print $1}'); do
  if ! dune exec bin/repro.exe -- lint -b "$b" -s small > /dev/null 2>&1; then
    echo "check.sh: repro lint found errors in $b:" >&2
    dune exec bin/repro.exe -- lint -b "$b" -s small >&2 || true
    exit 1
  fi
done

# Attribution gate: explain every registry study.  Under SIM_VALIDATE=1
# each explained loop's schedule is re-checked by the oracle, and its
# stall timeline and critical path by the attribution invariants (every
# core tiles [0, span], path length = span, busy = the simulator's).
explain_benches=0
for b in $(dune exec bin/repro.exe -- list 2> /dev/null | awk '/^[0-9]+\./ {print $1}'); do
  if ! dune exec bin/repro.exe -- explain -b "$b" > /dev/null 2>&1; then
    echo "check.sh: repro explain failed on $b:" >&2
    dune exec bin/repro.exe -- explain -b "$b" >&2 || true
    exit 1
  fi
  explain_benches=$((explain_benches + 1))
done
if [[ "$explain_benches" -lt 11 ]]; then
  echo "check.sh: expected 11 registry studies to explain, found ${explain_benches}" >&2
  exit 1
fi

# Lint self-test: corrupting a known-good plan must trip the named
# diagnostic with exit code 1 (partition kept, plan mutated).
lint_mutation() {
  local bench="$1" mutation="$2" diagnostic="$3" out code
  out="$(dune exec bin/repro.exe -- lint -b "$bench" -s small --mutate "$mutation" 2>&1)" \
    && code=0 || code=$?
  if [[ "$code" -ne 1 ]]; then
    echo "check.sh: lint --mutate $mutation on $bench exited $code, want 1" >&2
    exit 1
  fi
  if ! grep -q "error\[$diagnostic\]" <<< "$out"; then
    echo "check.sh: lint --mutate $mutation on $bench did not report $diagnostic:" >&2
    echo "$out" >&2
    exit 1
  fi
}
lint_mutation 181.mcf no-alias race
lint_mutation 186.crafty no-value unbroken-dep
lint_mutation 197.parser strip-rollback bad-annotation

# PDG-audit gate: every study that ships a loop-body IR must audit
# clean against it — the interpreter-vs-analysis soundness layer finds
# no unpredicted dependences, and the hand PDG carries every inferred
# must-dependence with matching breakers and probabilities.
audit_benches=()
for b in $(dune exec bin/repro.exe -- list 2> /dev/null | awk '/^[0-9]+\./ {print $1}'); do
  out="$(dune exec bin/repro.exe -- audit-pdg -b "$b" 2>&1)" && code=0 || code=$?
  if grep -q 'has no loop-body IR' <<< "$out"; then
    continue
  fi
  audit_benches+=("$b")
  if [[ "$code" -ne 0 ]] || ! grep -q 'lint: clean' <<< "$out"; then
    echo "check.sh: repro audit-pdg is not clean on $b (exit $code):" >&2
    echo "$out" >&2
    exit 1
  fi
done
if [[ "${#audit_benches[@]}" -lt 3 ]]; then
  echo "check.sh: expected >= 3 benches with loop-body IR, found ${#audit_benches[@]}" >&2
  exit 1
fi

# Audit self-test: analyzing a drop-write-mutated body while observing
# the original must trip the soundness layer with exit code 1, proving
# the audit can actually fail.
if dune exec bin/repro.exe -- audit-pdg -b 164.gzip --mutate drop-write > /dev/null 2>&1; then
  echo "check.sh: audit-pdg --mutate drop-write did not fail" >&2
  exit 1
fi

# JSON emitters: lint --json and audit-pdg --json must write their
# record and exit 0 on the clean 164.gzip artifacts.  The record's shape
# (key order at the top level and per finding) is test_lint's "json
# record shape" case, which dune runtest above already ran.
findings_json="$(mktemp -t findings_json.XXXXXX.json)"
if ! dune exec bin/repro.exe -- lint -b 164.gzip -s small --json "$findings_json" > /dev/null 2>&1 \
  || ! dune exec bin/repro.exe -- audit-pdg -b 164.gzip --json "$findings_json" > /dev/null 2>&1; then
  echo "check.sh: repro lint/audit-pdg --json failed on 164.gzip" >&2
  exit 1
fi
rm -f "$findings_json"

# Perf-regression gate: the bench smokes above appended to
# BENCH_history.jsonl; fail if the last two entries show a span or
# speedup regression beyond BENCH_TOLERANCE (default 2%).  Exit codes:
# 0 = ok, 1 = regression, 2 = usage/input error.
dune exec scripts/compare_bench.exe -- BENCH_history.jsonl

# Anti-scaling gate: the newest jobs>1 entry must not be more than
# SCALING_TOLERANCE (default 15%) slower in wall clock than the newest
# same-rev jobs=1 entry.  The gate catches the pathological case where
# adding domains makes the harness slower than running sequentially.
# Exit codes: 0 = ok / nothing to compare, 1 = anti-scaling, 2 = input
# error.  Informational mode (oversubscribed box, see above) tolerates
# exit 1 but still fails on exit 2.
scaling_code=0
dune exec scripts/compare_bench.exe -- --scaling BENCH_history.jsonl || scaling_code=$?
if [[ "$scaling_code" -eq 1 && "$scaling_enforce" -eq 0 ]]; then
  echo "check.sh: anti-scaling above is expected when ${SCALE_JOBS} domains time-slice ${cores} core(s); not fatal here (set SCALING_TOLERANCE to enforce)"
elif [[ "$scaling_code" -ne 0 ]]; then
  exit "$scaling_code"
fi

# Gate self-test on throwaway copies: a duplicated entry must pass, and
# an entry with every span inflated 10x must trip the gate.
last_entry="$(tail -n 1 BENCH_history.jsonl)"
printf '%s\n%s\n' "$last_entry" "$last_entry" > "$hist_tmp"
dune exec scripts/compare_bench.exe -- "$hist_tmp" > /dev/null
printf '%s\n' "$last_entry" > "$hist_bad"
printf '%s\n' "$last_entry" | sed 's/"span": */"span":9/g' >> "$hist_bad"
if dune exec scripts/compare_bench.exe -- "$hist_bad" > /dev/null 2>&1; then
  echo "check.sh: compare_bench failed to flag an inflated span" >&2
  exit 1
fi

# Scaling-gate self-test, same throwaway-file idea: a jobs=4 entry 2x
# slower than the same-rev jobs=1 entry must trip the gate; a parity
# pair must pass.
hist_scale="$(mktemp -t bench_hist_scale.XXXXXX.jsonl)"
seq_entry="$(printf '%s\n' "$last_entry" | sed 's/"jobs":[0-9]*/"jobs":1/; s/"total_seconds":[0-9.]*/"total_seconds":10/')"
par_slow="$(printf '%s\n' "$last_entry" | sed 's/"jobs":[0-9]*/"jobs":4/; s/"total_seconds":[0-9.]*/"total_seconds":20/')"
par_ok="$(printf '%s\n' "$last_entry" | sed 's/"jobs":[0-9]*/"jobs":4/; s/"total_seconds":[0-9.]*/"total_seconds":10.5/')"
printf '%s\n%s\n' "$seq_entry" "$par_slow" > "$hist_scale"
if SCALING_TOLERANCE=0.15 dune exec scripts/compare_bench.exe -- --scaling "$hist_scale" > /dev/null 2>&1; then
  echo "check.sh: compare_bench --scaling failed to flag a 2x-slower parallel run" >&2
  exit 1
fi
printf '%s\n%s\n' "$seq_entry" "$par_ok" > "$hist_scale"
SCALING_TOLERANCE=0.15 dune exec scripts/compare_bench.exe -- --scaling "$hist_scale" > /dev/null
rm -f "$hist_scale"

# Real-runtime smoke: execute one small bench on actual domains and
# assert the parallel output is byte-identical to the sequential
# reference (validate-real exits 1 on any mismatch).  The run appends a
# `real` entry to BENCH_history.jsonl; such entries are ignored by the
# perf/scaling gates above (they measure the simulator, not the
# runtime) but must round-trip through the history format.
hist_len_before="$(wc -l < BENCH_history.jsonl)"
dune exec bin/repro.exe -- validate-real -b 164.gzip -t 2 -s small \
  --history BENCH_history.jsonl > /dev/null
hist_len_after="$(wc -l < BENCH_history.jsonl)"
if [[ "$hist_len_after" -ne $((hist_len_before + 1)) ]]; then
  echo "check.sh: validate-real did not append exactly one history entry" >&2
  exit 1
fi
if ! tail -n 1 BENCH_history.jsonl | grep -q '"real"'; then
  echo "check.sh: validate-real history entry lacks a real block" >&2
  exit 1
fi

# Equality-check self-test: with a deliberately corrupted parallel
# output the byte-equality check must fail, proving validate-real can
# actually detect a wrong answer (exit 1; no history written).
if dune exec bin/repro.exe -- validate-real -b 164.gzip -t 2 -s small \
  --self-test-corrupt > /dev/null 2>&1; then
  echo "check.sh: validate-real --self-test-corrupt did not fail" >&2
  exit 1
fi

# Auto-planner gate: the planner tournament must find a plan matching
# or beating the hand plan on the two anchor benches — `repro plan`'s
# exit contract enforces winner >= hand (stronger than the 5% margin we
# require) and oracle-clean simulated runs, exiting 1 otherwise — and
# its ranked table must be byte-identical at jobs=1 and jobs=4: the
# branch-and-bound incumbent only advances at wave boundaries, so the
# ranking cannot depend on how a wave shards across domains.
plan_j1="$(mktemp -t plan_j1.XXXXXX.txt)"
plan_j4="$(mktemp -t plan_j4.XXXXXX.txt)"
for b in 164.gzip 181.mcf; do
  dune exec bin/repro.exe -- plan -b "$b" --jobs 1 > "$plan_j1"
  dune exec bin/repro.exe -- plan -b "$b" --jobs 4 > "$plan_j4"
  if ! diff -q "$plan_j1" "$plan_j4" > /dev/null; then
    echo "check.sh: repro plan on $b differs between jobs=1 and jobs=4:" >&2
    diff "$plan_j1" "$plan_j4" >&2 || true
    exit 1
  fi
done
rm -f "$plan_j1" "$plan_j4"

# Planner self-test: with a corrupted candidate generator every non-seed
# partition is structurally unsound (a serial stage merged into the
# replicated stage); the lint pruner must reject them all before any
# scoring, visible as a non-zero lint-pruned count on stdout.
plan_corrupt="$(dune exec bin/repro.exe -- plan -b 164.gzip --corrupt-candidates --jobs 2)"
if ! grep -qE 'lint-pruned [1-9]' <<< "$plan_corrupt"; then
  echo "check.sh: corrupted candidate generator was not caught by the lint pruner:" >&2
  echo "$plan_corrupt" >&2
  exit 1
fi

# Telemetry smoke: run one bench on real domains with probes on,
# assert the per-role latency histograms and queue counters print, the
# Chrome trace parses (its counter tracks now carry real SPSC
# occupancy samples), and the probe dump round-trips into the planner
# as a calibration source.
prof_trace="$(mktemp -t prof_trace.XXXXXX.json)"
prof_dump="$(mktemp -t prof_dump.XXXXXX.json)"
prof_out="$(mktemp -t prof_out.XXXXXX.txt)"
trap 'rm -f "$trace_tmp" "$hist_tmp" "$hist_bad" "$prof_trace" "$prof_dump" "$prof_out"' EXIT
dune exec bin/repro.exe -- profile-real -b 164.gzip -t 3 -s small \
  --trace "$prof_trace" --dump "$prof_dump" > "$prof_out"
for anchor in 'telemetry:' 'stage-us' 'high-water'; do
  if ! grep -q "$anchor" "$prof_out"; then
    echo "check.sh: profile-real output lacks '$anchor':" >&2
    cat "$prof_out" >&2
    exit 1
  fi
done
dune exec scripts/validate_trace.exe -- "$prof_trace"

# Speculative trace smoke: the same decoded probe stream on the Spec
# path (175.vpr squashes and re-executes), fused at two domains and
# replicated at three; validate-real writes one trace per point.
vpr_trace="$(mktemp -d -t vpr_trace.XXXXXX)"
trap 'rm -f "$trace_tmp" "$hist_tmp" "$hist_bad" "$prof_trace" "$prof_dump" "$prof_out"; rm -rf "$vpr_trace"' EXIT
dune exec bin/repro.exe -- validate-real -b 175.vpr -t 3 -s small \
  --trace "$vpr_trace/vpr.json" > /dev/null
for t in 2 3; do
  dune exec scripts/validate_trace.exe -- "$vpr_trace/vpr-t$t.json"
done

# Calibration smoke: fit from the profiled trace (auto) and from the
# probe dump above; `repro plan`'s exit contract already enforces
# winner >= hand and oracle-clean runs, so exit 0 means the calibrated
# tournament still beats the hand plan.  The report must carry the
# calibration-error block.
cal_out="$(dune exec bin/repro.exe -- plan -b 164.gzip -s small --calibrate auto --jobs 2)"
if ! grep -q 'max relative error' <<< "$cal_out"; then
  echo "check.sh: plan --calibrate auto printed no calibration error block:" >&2
  echo "$cal_out" >&2
  exit 1
fi
dune exec bin/repro.exe -- plan -b 164.gzip -s small --calibrate "$prof_dump" --jobs 2 > /dev/null

# Calibration self-test: a corrupted calibration file must be rejected
# with exit 1, proving the loader actually validates its input.
cal_bad="$(mktemp -t cal_bad.XXXXXX.json)"
printf '{"calibration": "garbage"' > "$cal_bad"
if dune exec bin/repro.exe -- plan -b 164.gzip -s small --calibrate "$cal_bad" --jobs 2 > /dev/null 2>&1; then
  echo "check.sh: plan --calibrate accepted a corrupted calibration file" >&2
  exit 1
fi
rm -f "$cal_bad"

# Calibration-fidelity gate: every registry study's calibrated
# realization must stay within CAL_TOLERANCE of its trace sweep (the
# bench smoke above regenerated BENCH_summary.json's calibration
# block).  Exit codes: 0 = ok, 1 = gate failed, 2 = input error.
dune exec scripts/check_calibration.exe

echo "check.sh: build + runtest + prop + bench smoke (jobs=1 and jobs=${SCALE_JOBS}, identical stdout) + trace smoke + lint gate + explain gate (${explain_benches} studies) + pdg-audit gate (${#audit_benches[@]} benches) + perf gate + scaling gate + validate-real smoke + auto-planner gate + telemetry smoke + speculative trace smoke + calibration gate OK (schedules oracle-validated)"
echo "perf record: BENCH_pipeline.json, BENCH_summary.json, BENCH_summary.csv, BENCH_history.jsonl"
