#!/usr/bin/env python3
"""Builds and runs the PDR serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale F]

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into .bench_build/ (or $CARGO_TARGET_DIR), then runs one
workload and passes the program's output through: the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
Results rows and trace spans go to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    log = out / "build.log"
    with open(log, "w") as f:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                return False
    return True


def git_provenance():
    """(sha, dirty) of the checkout, or ("none", "unknown") without git."""
    if not (ROOT / ".git").exists():
        return "none", "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "none", "unknown"
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "none", "unknown"


def source_digest():
    """sha256 over the benchmark and library sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="object-count multiplier (the smoke test uses 0.05)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("perfbench: library sources not found under %s\n" %
                         (ROOT / "src"))
        return 2
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not build(out):
        return 1

    sha, dirty = git_provenance()
    cmd = [str(out / "pdr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--out", str(ROOT / ".bench_out"),
           "--git-sha", sha, "--git-dirty", dirty,
           "--src-digest", source_digest()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: benchmark exited with %d\n" %
                         done.returncode)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
