#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

From the repository root:

    python3 perfbench/run.py --workload trace-1k --seed 7 --seconds 25 --trace 0

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs its binary. The binary measures the workload
and checks its outputs; this script adds provenance and prints:

* a `perfbench-record` line with every measured metric, the raw
  samples, the engine digest and the provenance (git rev or a source
  hash, nproc, build profile, `rustc -V`, seed);
* as the last line, one JSON object with `correct`, `attempted`,
  `failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json
  with `--trace 0`, its `per_layer` metrics with `--trace 1`. A layer
  metric a workload does not touch reads 0.

Exits non-zero, without the result line, if the build or the run fails;
exits 1 after the result line if a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("trace-1k", "kilonode-burst", "placement-offline", "mc-failover")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git rev when run in a clone, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        cwd=ROOT,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "snooze-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    try:
        run = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"run printed nothing (exit {run.returncode})")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"run did not end with a JSON line (exit {run.returncode})")

    measured = out["metrics"]
    selected = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name}: unit {got['unit']} != declared {unit}")
        selected[name] = {"value": got["value"], "unit": unit}

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env)
    record = dict(out["record"])
    record.update(
        rev=source_rev(),
        rustc=rustc.stdout.strip(),
        correct=out["correct"],
        attempted=out["attempted"],
        failed=out["failed"],
        metrics=measured,
    )
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": bool(out["correct"]) and run.returncode == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": selected,
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
