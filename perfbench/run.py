#!/usr/bin/env python3
"""Builds and runs the Surfer benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py \
        --workload <nr-threads|rs-threads|rs-tcp|serve-zipf|all> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the repository's libraries
plus the benchmark program) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. Before
measuring it runs the benchmark's arithmetic self-test. Build output goes to
stderr, so the last line on stdout is the JSON result. Reports and
Chrome traces land in <build dir>/perfbench/artifacts.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("nr-threads", "rs-threads", "rs-tcp", "serve-zipf", "all")
# surfer_perfbench exits well inside this on its own; the limit only stops a
# hung run from holding the machine.
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced only")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True when it succeeded."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(out):
    if not (out / "Makefile").exists():
        if not run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", str(out), "-j", jobs, "--target",
                      "surfer_perfbench", "perfbench_selftest"])


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    args = parse_args()
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if subprocess.run([str(out / "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        print("perfbench: arithmetic self-test failed", file=sys.stderr)
        return 1
    artifacts = out / "artifacts"
    artifacts.mkdir(exist_ok=True)
    cmd = [str(out / "surfer_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--artifact-dir", str(artifacts),
           "--commit", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
