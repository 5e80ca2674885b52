#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in one process.

Run from the repository root:

    python3 perfbench/run.py --workload ref-40c --seed 42 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build). The benchmark
binary's stdout is passed through; its last line is the JSON result. Spans
of a traced run are written under perfbench/out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ref-40c", "serial-8c", "shared-8c")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# What the benchmark binary is built from.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src", "perfbench/reference.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def revision():
    """The git revision, when run in a git checkout, and a digest of the
    sources the binary is built from, which names the code without git."""
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = ROOT / entry
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    git = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        git = out.stdout.strip() or "none"
    return f"git:{git} src:{digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = {k: v for k, v in os.environ.items() if not k.startswith("GARIBALDI_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit(f"error: building the benchmark failed (exit {build.returncode})")

    exe = ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"
    run = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rev", revision(), "--out", str(BENCH / "out")],
        cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
