#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim_wide --seed 1 --seconds 10 --trace 0

Run from the repository root. Configures and builds perfbench/ (and the
repository libraries it links) in $CARGO_TARGET_DIR, default
.bench_build, then runs one workload and relays its output. The last line
of standard output is the result object; it is checked against
BENCHMARK.json (every metric named there, nothing else) before this
script exits 0. Traced runs write their spans to
<build dir>/traces/<workload>-seed<n>.csv.

    python3 perfbench/run.py --self-test

builds and runs the tests of the benchmark's own arithmetic.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_quiet(cmd, env):
    """Run a build step with its output on stderr; stdout stays the result's."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(map(str, cmd))}")


def build(targets):
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temporaries in the checkout
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        run_quiet(["cmake", "-S", str(SOURCE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(out), "-j", jobs, "--target", *targets], env)
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """The problem with the result line, or None when it is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not a JSON object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result object has the wrong keys"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    if not result["correct"]:
        return "an output check failed"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        return subprocess.run([str(out / "perfbench_tests")], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")

    out = build(["perfbench"])
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.csv")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")  # details, but no result
        sys.exit(f"perfbench: {args.workload} exited with {proc.returncode}")
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit(f"perfbench: {problem}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
