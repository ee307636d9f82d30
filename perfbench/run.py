#!/usr/bin/env python3
"""Builds the helcfl benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sync-cnn --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); results and
span files go to its results/ directory.  Build output goes to stderr, so
the last line of stdout is the result object (see perfbench/README.md).
Exits non-zero without a result when the sources cannot be built.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sync-cnn", "async-mlp", "svc-tcp")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no helcfl sources at {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the benchmarked sources, recognisable without git."""
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results), "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
