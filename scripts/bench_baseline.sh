#!/usr/bin/env bash
# Runs the accuracy/cost benches that track the paper's headline figures
# (Fig. 8 accuracy, Fig. 8 memory, Fig. 10 cost) plus the durability
# extension (checkpoint cost, WAL volume, recovery time, and the
# online-scrub overhead series: verification cost per tick vs page
# budget) and the
# resilience extension (p99 latency and answer-tier mix vs offered load)
# and the MVCC extension (commit rate and snapshot-query p99 vs reader
# load) and the FFT extension (whole-plane field build cost vs raster
# resolution, batch amortization vs query count) with JSONL output and
# consolidates the series into one
# BENCH_baseline.json at the repo root. Two observability series ride
# along: the flight-recorder's off/on overhead on the end-to-end query
# probe and the byte size of one seeded deadline-miss dump pair. The
# "kernels" entry records bench_micro's per-kernel rows (the FR plane
# sweep, the region algebra, PA's dense-region search, the end-to-end FR
# query) as medians of 5 repetitions.
# The timing-relevant cost bench runs twice — serial (--threads=1) and at
# hardware concurrency (--threads=0) — so the baseline records the scaling
# headroom of the parallel query paths; answers are bit-identical across
# the two runs, only the cost columns move. The file is the committed
# reference point: re-run after a performance- or accuracy-relevant change
# and diff to see what moved.
#
# Every bench carries its own provenance (git SHA and dirty flag, UTC
# date, core count, compiler, build type) in the top-level "provenance"
# map, so a file whose series were recorded at different times still
# says where each one came from.
#
# Usage: scripts/bench_baseline.sh [--scale=X | --full] [--build DIR]
#                                  [--only B1,B2,...]
#
#   --scale=X   dataset-size multiplier forwarded to every bench
#               (default 0.1, the benches' own default)
#   --full      paper scale (forwarded; implies scale 1.0)
#   --build DIR build tree holding the bench binaries (default: build)
#   --only LIST re-record just these entries of "benches" (e.g.
#               bench_fig10_cost,bench_fig10_cost.threads_hw,replay,
#               flight_recorder,kernels) and merge them into the existing file,
#               keeping every other bench and its provenance; the scale
#               must match the file's

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build"
bench_args=()
scale="0.1"
only=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build)
      build="$2"
      shift 2
      ;;
    --full)
      bench_args+=("--full")
      scale="1.0"
      shift
      ;;
    --scale=*)
      bench_args+=("$1")
      scale="${1#--scale=}"
      shift
      ;;
    --only)
      only="$2"
      shift 2
      ;;
    --only=*)
      only="${1#--only=}"
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

all_benches=(bench_fig8_accuracy bench_fig8_memory bench_fig10_cost
             bench_durability bench_resilience bench_mvcc bench_fft)
known=("${all_benches[@]}" bench_fig10_cost.threads_hw replay
       flight_recorder kernels)

# wanted NAME: true when NAME is recorded in this run.
wanted() {
  [[ -z "${only}" ]] && return 0
  [[ ",${only}," == *",$1,"* ]]
}
if [[ -n "${only}" ]]; then
  IFS=, read -r -a only_list <<<"${only}"
  for name in "${only_list[@]}"; do
    if [[ " ${known[*]} " != *" ${name} "* ]]; then
      echo "error: --only: unknown bench '${name}' (known: ${known[*]})" >&2
      exit 2
    fi
  done
fi

benches=()
for b in "${all_benches[@]}"; do
  if wanted "${b}"; then benches+=("${b}"); fi
done
for b in ${benches[@]+"${benches[@]}"}; do
  if [[ ! -x "${build}/bench/${b}" ]]; then
    echo "error: ${build}/bench/${b} not built (cmake --build ${build})" >&2
    exit 1
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

for b in ${benches[@]+"${benches[@]}"}; do
  echo "==== ${b} (threads=1) ===="
  "${build}/bench/${b}" --jsonl="${tmpdir}/${b}.jsonl" \
      ${bench_args[@]+"${bench_args[@]}"} >/dev/null
done

# The cost bench again at hardware concurrency: same answers, parallel
# refinement/branch-and-bound timings.
hw="$(nproc 2>/dev/null || echo 0)"
if wanted bench_fig10_cost.threads_hw; then
  echo "==== bench_fig10_cost (threads=${hw}) ===="
  "${build}/bench/bench_fig10_cost" --threads=0 \
      --jsonl="${tmpdir}/bench_fig10_cost.threads_hw.jsonl" \
      ${bench_args[@]+"${bench_args[@]}"} >/dev/null
fi

# Flight-recorder series: (a) the overhead probe pair from bench_micro —
# the same off/on interleaved comparison scripts/check_overhead.sh gates
# on, recorded here so the baseline tracks the recorder's end-to-end cost
# over time — and (b) the size of one deadline-miss dump pair (JSONL +
# Chrome trace) from a seeded pdr_tool run, so dump-volume regressions
# show up in the diff. Both are skipped (with a note) when the binaries
# aren't in the build tree.
if ! wanted flight_recorder; then
  :
elif [[ -x "${build}/bench/bench_micro" ]]; then
  echo "==== bench_micro recorder overhead probe ===="
  env -u PDR_FLIGHT_RECORDER "${build}/bench/bench_micro" \
      --benchmark_filter='^BM_FrQuery(RecorderOn)?$' \
      --benchmark_repetitions=5 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_format=json >"${tmpdir}/recorder_probe.json"
else
  echo "note: bench_micro not built; skipping recorder-overhead series"
fi
# Kernel series: bench_micro's rows for the kernels an exact or approx
# tick spends its CPU in — the plane sweep on synthetic cells (l = 30 and
# l = 1) and on the trip model's real candidate cells, FR's merge of those
# cells' rects without and with strip folding, Coalesced(), one side and
# both sides of the monitor delta, PA's dense-region search, and the
# end-to-end FR query.
# Five repetitions; the JSON's median aggregate is what gets recorded.
if ! wanted kernels; then
  :
elif [[ -x "${build}/bench/bench_micro" ]]; then
  echo "==== bench_micro kernel rows ===="
  env -u PDR_FLIGHT_RECORDER "${build}/bench/bench_micro" \
      --benchmark_filter='^(BM_SweepCell.*|BM_FrMergeTripModel/.*|BM_RegionCoalesce/.*|BM_RegionDifferences?|BM_ChebGridQueryDense|BM_FrQuery)$' \
      --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json >"${tmpdir}/kernels.json"
else
  echo "note: bench_micro not built; skipping kernel series"
fi
# Replay series: `pdr_tool replay --bench` over the canned CI workload
# (tests/fixtures/ci_workload.wlog) — the series scripts/check_replay.sh
# gates p99 against. Recorded here so the committed baseline and the CI
# gate measure the exact same fixed workload. Several repetitions, all
# rows kept: the gate compares min-of-N on both sides, so a baseline
# recorded from a single lucky-fast run would read every later
# (honest) measurement as a regression.
if ! wanted replay; then
  :
elif [[ -x "${build}/examples/pdr_tool" && \
      -f "${repo}/tests/fixtures/ci_workload.wlog" ]]; then
  echo "==== pdr_tool replay --bench (canned CI workload) ===="
  : >"${tmpdir}/replay.jsonl"
  for _ in $(seq "${PDR_REPLAY_BENCH_REPS:-5}"); do
    "${build}/examples/pdr_tool" replay \
        --log "${repo}/tests/fixtures/ci_workload.wlog" --bench \
        --jsonl "${tmpdir}/replay_rep.jsonl" >/dev/null
    cat "${tmpdir}/replay_rep.jsonl" >>"${tmpdir}/replay.jsonl"
  done
else
  echo "note: pdr_tool or replay fixture missing; skipping replay series"
fi
if ! wanted flight_recorder; then
  :
elif [[ -x "${build}/examples/pdr_tool" ]]; then
  echo "==== pdr_tool seeded deadline-miss dump ===="
  dumpdir="${tmpdir}/fr_dumps"
  mkdir -p "${dumpdir}"
  "${build}/examples/pdr_tool" gen --out "${tmpdir}/dump_probe.pdrd" \
      --objects 2000 --extent 1000 --duration 20 --seed 7 >/dev/null
  "${build}/examples/pdr_tool" query --in "${tmpdir}/dump_probe.pdrd" \
      --varrho 3 --l 30 --qt 25 --deadline-ms 0.2 --degrade 1 \
      --flight-dir "${dumpdir}" >/dev/null 2>&1 || true
else
  echo "note: pdr_tool not built; skipping dump-size series"
fi

# Provenance: without it a baseline diff can't be attributed — was the
# p99 shift a code change, a different compiler, or another machine?
git_sha="$(git -C "${repo}" rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty="clean"
if ! git -C "${repo}" diff --quiet HEAD 2>/dev/null; then
  git_dirty="dirty"
fi
nproc_now="$(nproc 2>/dev/null || echo unknown)"
cxx_path="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
    "${build}/CMakeCache.txt" 2>/dev/null | head -1)"
cxx_version="$("${cxx_path:-c++}" --version 2>/dev/null | head -1 || echo unknown)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "${build}/CMakeCache.txt" 2>/dev/null | head -1)"
cxx_flags="$(sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' \
    "${build}/CMakeCache.txt" 2>/dev/null | head -1)"
date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

out="${repo}/BENCH_baseline.json"
PDR_META_GIT="${git_sha}" \
PDR_META_DIRTY="${git_dirty}" \
PDR_META_NPROC="${nproc_now}" \
PDR_META_COMPILER="${cxx_version}" \
PDR_META_BUILD_TYPE="${build_type:-}" \
PDR_META_CXX_FLAGS="${cxx_flags:-}" \
PDR_META_DATE="${date_utc}" \
PDR_ONLY="${only}" \
python3 - "$out" "$scale" "${tmpdir}" ${benches[@]+"${benches[@]}"} <<'PY'
import json
import os
import sys

out_path, scale, tmpdir = sys.argv[1], sys.argv[2], sys.argv[3]
benches = sys.argv[4:]
only = [b for b in os.environ.get("PDR_ONLY", "").split(",") if b]

provenance = {
    "git": os.environ.get("PDR_META_GIT", "unknown"),
    "dirty": os.environ.get("PDR_META_DIRTY", "unknown") == "dirty",
    "date": os.environ.get("PDR_META_DATE", ""),
    "nproc": os.environ.get("PDR_META_NPROC", "unknown"),
    "compiler": os.environ.get("PDR_META_COMPILER", "unknown"),
    "build_type": os.environ.get("PDR_META_BUILD_TYPE", ""),
    "cxx_flags": os.environ.get("PDR_META_CXX_FLAGS", ""),
}

doc = {"schema": "pdr-bench-baseline/v3", "scale": float(scale),
       "provenance": {}, "benches": {}}
if only:
    # Merge: start from the committed file and replace only what this run
    # records. A file from before per-bench provenance keeps its old
    # file-wide metadata as the (unattributed) provenance of every series
    # it carried.
    with open(out_path) as f:
        old = json.load(f)
    if float(old.get("scale", scale)) != float(scale):
        sys.exit(f"--only: scale {scale} differs from the file's "
                 f"{old.get('scale')}; re-record everything instead")
    doc["benches"] = old.get("benches", {})
    doc["provenance"] = old.get("provenance", {})
    legacy = old.get("metadata")
    for name in doc["benches"]:
        if name not in doc["provenance"] and legacy is not None:
            doc["provenance"][name] = dict(
                legacy, note="file-wide metadata of a run that predates "
                             "per-bench provenance; the series may have "
                             "been recorded elsewhere")


def collect(path):
    series = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("type") != "series":
                continue
            series.setdefault(row["series"], []).append(row["values"])
    return series


recorded = []


def record(name, series):
    doc["benches"][name] = series
    doc["provenance"][name] = provenance
    recorded.append(name)


for bench in benches:
    record(bench, collect(f"{tmpdir}/{bench}.jsonl"))
# Hardware-concurrency rerun of the cost bench (threads=hw vs the
# threads=1 series above).
threads_hw = f"{tmpdir}/bench_fig10_cost.threads_hw.jsonl"
if os.path.exists(threads_hw):
    record("bench_fig10_cost.threads_hw", collect(threads_hw))

# Replay bench over the canned CI workload (the check_replay.sh p99 gate
# reads doc["benches"]["replay"]["replay_bench"]). A machine-speed
# calibration rides along: a fixed sha256 workload (Python/OpenSSL, not
# repo code — a repo-code yardstick would shift with the very
# regressions the gate must catch) whose CPU time tracks the machine's
# frequency regime. The gate normalizes its p99 comparison by the
# calibration ratio, cancelling ±15% frequency swings that hit CPU time
# as much as wall time.
replay_jsonl = os.path.join(tmpdir, "replay.jsonl")
if os.path.exists(replay_jsonl):
    record("replay", collect(replay_jsonl))

    import hashlib
    import time

    def sha256_calib_ms():
        buf = bytes(range(256)) * 16  # 4 KiB
        best = float("inf")
        for _ in range(3):
            t0 = time.process_time()
            h = hashlib.sha256()
            for _ in range(20000):
                h.update(buf)
            best = min(best, 1000.0 * (time.process_time() - t0))
        return best

    doc["benches"]["replay"]["calibration"] = [
        {"sha256_cpu_ms": sha256_calib_ms()}]

# Flight-recorder overhead: min CPU time of the interleaved off/on probe
# pair (see scripts/check_overhead.sh for the measurement rationale).
probe = os.path.join(tmpdir, "recorder_probe.json")
if os.path.exists(probe):
    with open(probe) as f:
        runs = json.load(f)["benchmarks"]
    mins = {}
    for b in runs:
        if b.get("run_type", "iteration") != "iteration":
            continue
        name = b["name"].split("/")[0]
        mins[name] = min(mins.get(name, float("inf")), b["cpu_time"])
    off = mins.get("BM_FrQuery")
    on = mins.get("BM_FrQueryRecorderOn")
    if off and on:
        record("flight_recorder", {"overhead": [{
            "off_ms": off / 1e6, "on_ms": on / 1e6,
            "overhead_pct": 100.0 * (on - off) / off}]})

# Kernel medians: one row per bench_micro row, times in ns plus the row's
# own counters (items_per_second, rects, cells, ...).
kernels = os.path.join(tmpdir, "kernels.json")
if os.path.exists(kernels):
    with open(kernels) as f:
        runs = json.load(f)["benchmarks"]
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    standard = {"name", "family_index", "per_family_instance_index",
                "run_name", "run_type", "repetitions", "threads",
                "aggregate_name", "aggregate_unit", "iterations",
                "real_time", "cpu_time", "time_unit", "repetition_index"}
    rows = []
    for b in runs:
        if b.get("aggregate_name") != "median":
            continue
        unit = to_ns[b.get("time_unit", "ns")]
        row = {"bench": b["run_name"], "real_ns": b["real_time"] * unit,
               "cpu_ns": b["cpu_time"] * unit, "repetitions": b["repetitions"]}
        row.update({k: v for k, v in b.items() if k not in standard})
        rows.append(row)
    record("kernels", {"median": rows})

# Dump volume: sizes of the seeded deadline-miss dump pair.
dumpdir = os.path.join(tmpdir, "fr_dumps")
if os.path.isdir(dumpdir):
    rows = []
    for name in sorted(os.listdir(dumpdir)):
        if not name.endswith(".jsonl"):
            continue
        stem = os.path.join(dumpdir, name[:-len(".jsonl")])
        with open(stem + ".jsonl") as f:
            events = max(0, sum(1 for _ in f) - 1)  # minus header line
        row = {"dump": name[:-len(".jsonl")], "events": events,
               "jsonl_bytes": os.path.getsize(stem + ".jsonl")}
        if os.path.exists(stem + ".trace.json"):
            row["trace_bytes"] = os.path.getsize(stem + ".trace.json")
        rows.append(row)
    if rows:
        if "flight_recorder" not in recorded:
            record("flight_recorder", {})
        doc["benches"]["flight_recorder"]["dump_size"] = rows

with open(out_path, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")

rows = sum(len(v) for b in doc["benches"].values() for v in b.values())
print(f"wrote {out_path}: {rows} rows across "
      f"{sum(len(b) for b in doc['benches'].values())} series; "
      f"recorded {', '.join(recorded) or 'nothing'}")
PY
