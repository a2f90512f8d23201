#!/usr/bin/env bash
# Tier-1 gate plus an end-to-end smoke run of the benchmark harness.
#
#   scripts/check.sh            # build, tests, prop tests, bench smoke
#   REPRO_JOBS=8 scripts/check.sh
#   CHECK_SEED=1234 scripts/check.sh   # re-seed every randomized property
#
# Every schedule simulated by the tests is re-checked by Sim.Oracle
# (SIM_VALIDATE=1).  Every randomized property runs on QCheck2 through
# Check.Runner, seeded from CHECK_SEED or else from its name, so it draws
# the same inputs on every run unless CHECK_SEED is set.  The @prop alias
# runs each property that fixes no count at 1000 cases; a failure prints
# its shrunk counterexample and the CHECK_SEED that alone replays it.
#
# Behaviour is checked by `dune runtest`: test/golden snapshots every
# deterministic output of bench/main.exe and repro (the tables and
# figures, run, plan, explain, --summary, lint, audit-pdg, infer and
# their self-tests) at jobs 1 and 4 where jobs apply.  The bench smoke
# below regenerates the tables and figures at medium scale at jobs 1
# and N, and the anti-scaling gate compares the two runs' wall clock.
# The script writes nothing in the checkout outside _build.
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

# The anti-scaling verdict: `scaling_verdict SEQ PAR` compares a jobs=N
# run of PAR seconds against a jobs=1 run of SEQ seconds, prints both
# times and the ratio, and exits 0 when the parallel run is at most
# SCALING_TOLERANCE (default 0.15, a non-negative fraction) slower, 1
# when it is slower still, and 2 when the tolerance is malformed.
scaling_verdict() (
  tol="${SCALING_TOLERANCE-0.15}"
  if ! [[ "$tol" =~ ^([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][-+]?[0-9]+)?$ ]]; then
    echo "check.sh: SCALING_TOLERANCE must be a non-negative fraction, got '${tol}'" >&2
    exit 2
  fi
  awk -v seq="$1" -v par="$2" -v tol="$tol" -v jobs="$SCALE_JOBS" 'BEGIN {
    ratio = seq > 0 ? par / seq : 1
    printf "check.sh: scaling gate: jobs=%d %.2fs vs jobs=1 %.2fs (ratio %.2f, tolerance %.0f%%)\n",
      jobs, par, seq, ratio, 100 * tol
    if (ratio <= 1 + tol) { print "  ok: parallel run within tolerance of sequential"; exit 0 }
    printf "  ANTI-SCALING: jobs=%d is %.0f%% slower than jobs=1 (allowed: %.0f%%)\n",
      jobs, 100 * (ratio - 1), 100 * tol
    exit 1
  }'
)

# The verdict's self-test on fixed numbers, before it judges real runs:
# 20 s against 10 s fails, 10.5 s against 10 s passes at 0.15, and a
# malformed tolerance is an input error.
for verdict_case in "1 0.15 10 20" "0 0.15 10 10.5" "2 abc 10 10"; do
  read -r want tol seq par <<< "$verdict_case"
  got=0
  SCALING_TOLERANCE="$tol" scaling_verdict "$seq" "$par" > /dev/null 2>&1 || got=$?
  if [[ "$got" -ne "$want" ]]; then
    echo "check.sh: scaling_verdict ${seq} ${par} at SCALING_TOLERANCE=${tol} exited ${got}, want ${want}" >&2
    exit 1
  fi
done

# `timed VAR CMD...` runs CMD with stdout discarded and stores its wall
# clock, in seconds, in VAR.
timed() {
  local var="$1" t0 t1 us
  shift
  t0="${EPOCHREALTIME/[.,]/}"
  "$@" > /dev/null
  t1="${EPOCHREALTIME/[.,]/}"
  us=$((t1 - t0))
  printf -v "$var" '%d.%06d' $((us / 1000000)) $((us % 1000000))
}

dune build
dune runtest
dune build @prop

# Bench smoke, twice in the same session: sequential, then parallel.
# Their stdout is the golden snapshot test/golden/bench-quick.expected,
# which dune runtest above already compared at jobs 1 and 4.  The built
# executable runs directly, not through `dune exec`, whose start-up
# (about 0.2 s on a 2-vCPU x86-64 host) would otherwise be added to both
# sides of the ratio.
#
# These two runs are what the anti-scaling gate times, so they measure
# the simulator hot path alone: SIM_VALIDATE is off (the oracle
# re-checks every schedule, which would add its own time, about a third
# of the simulation's in a model-sim pass, to the scaling measurement;
# its bookkeeping is int arrays filled in two walks and allocates
# little, 0.4 Mword per traced model-sim pass).  Oracle coverage comes
# from dune runtest / @prop above, whose snapshot rules all set
# SIM_VALIDATE=1.
bench_exe=_build/default/bench/main.exe
timed seq_seconds env SIM_VALIDATE=0 REPRO_JOBS=1 "$bench_exe"
timed par_seconds env SIM_VALIDATE=0 REPRO_JOBS="$SCALE_JOBS" "$bench_exe"

# Anti-scaling gate: the jobs=N run must not be more than
# SCALING_TOLERANCE slower in wall clock than the jobs=1 run.  The gate
# catches the pathological case where adding domains makes the harness
# slower than running sequentially.  Informational mode (oversubscribed
# box, see above) tolerates exit 1 but still fails on exit 2.
scaling_code=0
scaling_verdict "$seq_seconds" "$par_seconds" || scaling_code=$?
if [[ "$scaling_code" -eq 1 && "$scaling_enforce" -eq 0 ]]; then
  echo "check.sh: anti-scaling above is expected when ${SCALE_JOBS} domains time-slice ${cores} core(s); not fatal here (set SCALING_TOLERANCE to enforce)"
elif [[ "$scaling_code" -ne 0 ]]; then
  exit "$scaling_code"
fi

# Trace smoke: run one registry study with SIM_TRACE set, then parse the
# emitted Chrome trace back and assert it has slices + counter tracks.
trace_tmp="$(mktemp -t sim_trace.XXXXXX.json)"
trap 'rm -f "$trace_tmp"' EXIT
SIM_TRACE="$trace_tmp" dune exec bin/repro.exe -- run -b 164.gzip -s small > /dev/null 2>&1
dune exec scripts/validate_trace.exe -- "$trace_tmp"

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

# Real-runtime smoke: execute one small bench on actual domains and
# assert the parallel output is byte-identical to the sequential
# reference (validate-real exits 1 on any mismatch).
dune exec bin/repro.exe -- validate-real -b 164.gzip -t 2 -s small > /dev/null

# Equality-check self-test: with a deliberately corrupted parallel
# output the byte-equality check must fail, proving validate-real can
# actually detect a wrong answer (exit 1).
if dune exec bin/repro.exe -- validate-real -b 164.gzip -t 2 -s small \
  --self-test-corrupt > /dev/null 2>&1; then
  echo "check.sh: validate-real --self-test-corrupt did not fail" >&2
  exit 1
fi

# Telemetry smoke: run one bench on real domains with probes on,
# assert the per-role rows (items=, folded from the probe histograms),
# the latency histograms and the queue counters print, and the Chrome
# trace parses (its counter tracks carry real SPSC occupancy samples).
prof_trace="$(mktemp -t prof_trace.XXXXXX.json)"
prof_out="$(mktemp -t prof_out.XXXXXX.txt)"
trap 'rm -f "$trace_tmp" "$prof_trace" "$prof_out"' EXIT
dune exec bin/repro.exe -- profile-real -b 164.gzip -t 3 -s small \
  --trace "$prof_trace" > "$prof_out"
for anchor in 'telemetry:' 'items=' 'stage-us' 'high-water'; do
  if ! grep -q "$anchor" "$prof_out"; then
    echo "check.sh: profile-real output lacks '$anchor':" >&2
    cat "$prof_out" >&2
    exit 1
  fi
done
dune exec scripts/validate_trace.exe -- "$prof_trace"

# Speculative trace smoke: the same decoded probe stream on the Spec
# path (175.vpr), fused at two domains and with one B replica at three,
# where forwarding leaves nothing to squash; validate-real writes one
# trace per point.
vpr_trace="$(mktemp -d -t vpr_trace.XXXXXX)"
trap 'rm -f "$trace_tmp" "$prof_trace" "$prof_out"; rm -rf "$vpr_trace"' EXIT
dune exec bin/repro.exe -- validate-real -b 175.vpr -t 3 -s small \
  --trace "$vpr_trace/vpr.json" > /dev/null
for t in 2 3; do
  dune exec scripts/validate_trace.exe -- "$vpr_trace/vpr-t$t.json"
done

echo "check.sh: scaling verdict self-test + build + runtest (golden snapshots) + prop + bench smoke (jobs=1 and jobs=${SCALE_JOBS}) + scaling gate + trace smoke + lint/audit-pdg --json + validate-real smoke + telemetry smoke + speculative trace smoke OK (schedules oracle-validated)"
