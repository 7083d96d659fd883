#!/usr/bin/env bash
# Flight-recorder overhead-regression gate.
#
# The recorder's contract is "cheap enough to leave on": a disabled
# call site is one relaxed load and a branch, and an enabled one is a
# timestamp plus six atomic stores into a per-thread ring. This gate
# holds the end-to-end cost to that contract with bench_micro's probe
# pair — BM_FrQuery (recorder off) vs BM_FrQueryRecorderOn — a full FR
# query crossing every instrumented subsystem (filter, per-cell
# refinement, plane sweep, buffer pool). It fails if the enabled probe
# is more than PDR_OVERHEAD_GATE_PCT percent (default 3) slower.
#
# Noise handling, both layers matter on busy CI machines:
#   - the two probes run in ONE bench_micro invocation with
#     --benchmark_enable_random_interleaving, so off and on repetitions
#     alternate and clock/thermal drift hits both sides equally
#     (sequential off-then-on runs showed >10% phantom "overhead" from
#     drift alone);
#   - the gate compares the MINIMUM CPU time per side across
#     PDR_OVERHEAD_GATE_REPS repetitions — the fastest repetition is
#     the least-interfered one.
#
# Usage: scripts/check_overhead.sh [--build DIR]

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build"
if [[ "${1:-}" == "--build" ]]; then
  build="$2"
fi

bench="${build}/bench/bench_micro"
if [[ ! -x "${bench}" ]]; then
  echo "error: ${bench} not built (cmake --build ${build})" >&2
  exit 1
fi

gate_pct="${PDR_OVERHEAD_GATE_PCT:-3}"
reps="${PDR_OVERHEAD_GATE_REPS:-9}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

echo "==== bench_micro BM_FrQuery off/on interleaved (${reps} reps) ===="
env -u PDR_FLIGHT_RECORDER "${bench}" \
    --benchmark_filter='^BM_FrQuery(RecorderOn)?$' \
    --benchmark_repetitions="${reps}" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=false \
    --benchmark_format=json >"${tmpdir}/probe.json"

python3 - "${tmpdir}/probe.json" "${gate_pct}" <<'PY'
import json
import sys

path, gate_pct = sys.argv[1], float(sys.argv[2])
with open(path) as f:
    doc = json.load(f)

times = {"BM_FrQuery": [], "BM_FrQueryRecorderOn": []}
for b in doc["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    name = b["name"].split("/")[0]
    if name in times:
        times[name].append(b["cpu_time"])

for name, t in times.items():
    if not t:
        sys.exit(f"no iterations for {name} in {path}")

off = min(times["BM_FrQuery"])
on = min(times["BM_FrQueryRecorderOn"])
pct = 100.0 * (on - off) / off
print(f"recorder off: {off / 1e6:.3f} ms  on: {on / 1e6:.3f} ms  "
      f"overhead: {pct:+.2f}% (gate: {gate_pct:.1f}%)")
if pct > gate_pct:
    sys.exit(f"FAIL: flight-recorder overhead {pct:.2f}% exceeds "
             f"{gate_pct:.1f}% gate")
print("overhead gate passed")
PY
