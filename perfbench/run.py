#!/usr/bin/env python3
"""Builds the `julienne` binary and the benchmark from this checkout, then
runs one workload and passes its output through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. Build output goes to
`$CARGO_TARGET_DIR` (default `.bench_build`); the last line of standard
output is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kcore-rmat18", "sssp-rmat18", "serve-mix", "serve-mutate"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(cmd, env):
    # Cargo's progress goes to stderr; keep stdout for the result alone.
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    for need in ("Cargo.toml", "Cargo.lock", "crates", "shims"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: run from a full checkout of the repository")

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "--quiet", "-p", "julienne-cli"], env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    work = os.path.join(target, "perfbench-work", f"{a.workload}-{os.getpid()}")
    spans = os.path.join(target, "perfbench-spans")
    os.makedirs(spans, exist_ok=True)
    env["PERFBENCH_COMMIT"] = commit()
    cmd = [os.path.join(target, "release", "julienne-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--julienne", os.path.join(target, "release", "julienne"),
           "--work", work]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within 170 s")
    finally:
        if os.path.isdir(work):
            for f in os.listdir(work):
                if f.startswith("spans-"):
                    shutil.move(os.path.join(work, f), os.path.join(spans, f))
            shutil.rmtree(work, ignore_errors=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
