#!/usr/bin/env python3
"""Scenario benchmark for divrel: builds, repeats, aggregates.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `scenario_run` (the fleet worker) and the `perfbench` repetition
binary in release mode, then runs one fresh `perfbench` process per
repetition until `--seconds` have passed (at least one repetition).
Each repetition checks its own outputs; across repetitions the results
digest and the adaptive round count must not change. The last line of
standard output is the result as one JSON object; the line before it
records provenance (host, toolchain, revision, spec hash). Workload and
metric names and units come from BENCHMARK.json. Exits 1 without a
result line when the program cannot be built or a repetition fails to
run, and 1 after the result line when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# A repetition runs two or three passes of a few seconds each; anything
# far beyond that is a hang, not a measurement. Kept short so a hung
# run still exits within its time limit.
REP_TIMEOUT_S = 60
# Set-up takes microseconds to milliseconds, so besides the one cold
# set-up each repetition times, this many set-up-only processes add
# cold samples to the median.
SETUP_PROBES = 15


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(root):
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "bench").is_dir():
        fail("run from the root of a divrel checkout (Cargo.toml and crates/bench not found)")
    manifest = str(Path("perfbench") / "Cargo.toml")
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "divrel-bench", "--bin", "scenario_run"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    ]
    for cmd in steps:
        if not run_quiet(cmd):
            fail(f"build failed: {' '.join(cmd)}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    if not target.is_absolute():
        target = root / target
    return target / "release" / "perfbench", target / "release" / "scenario_run"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the sources the benchmark builds: the revision when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench", "scenarios"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repetition(bench, worker, scratch, args, setup_only=False):
    cmd = [
        str(bench), "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--worker", str(worker), "--scratch", str(scratch),
    ] + (["--setup-only"] if setup_only else [])
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"repetition timed out after {REP_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"repetition exited with {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench, worker = build(root)
    scratch = root / ".perfbench_tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()

    reps = []
    started = time.monotonic()
    try:
        setups = [
            repetition(bench, worker, scratch, args, setup_only=True)["metrics"]["setup_s"]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        # Start another repetition only if it is expected to end before
        # the deadline by half its length, so a run overruns
        # `--seconds` by half a repetition at most, on average not at all.
        last = 0.0
        while not reps or time.monotonic() - started + last / 2 < args.seconds:
            rep_started = time.monotonic()
            reps.append(repetition(bench, worker, scratch, args))
            last = time.monotonic() - rep_started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["checks"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    # Across repetitions: one seed, one spec, one result.
    for key in ("spec_hash", "digest", "rounds"):
        attempted += 1
        values = {r[key] for r in reps}
        if len(values) != 1:
            failures.append(f"{key} changed across repetitions: {sorted(map(str, values))}")
    for f in failures:
        print(f"correctness: {f}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        values = [r["metrics"][m["name"]] for r in reps if m["name"] in r["metrics"]]
        if len(values) != len(reps):
            fail(f"metric {m['name']} missing from a repetition")
        if m["name"] == "setup_s":
            values += setups
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(reps),
        "spec_hash": reps[0]["spec_hash"],
        "results_digest": reps[0]["digest"],
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(root),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
