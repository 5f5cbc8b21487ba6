#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and bounds are defined in BENCHMARK.json at the root.
The runner is built with CMake under .bench_build/perfbench (the first run
compiles the fcbench library from src/). Engine files live under
.bench_build/perfbench/work and are removed when the run ends.

Stdout: the runner's human-readable report, one `provenance` line, and as
the last line one JSON object with exactly the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics, and also writes the spans of the traced run to
.bench_build/perfbench/trace-<workload>-seed<n>.json (Chrome-trace JSON).
A run whose program fails to build, crashes, or reports a different metric
set than BENCHMARK.json exits non-zero without printing a result.

Seeds: every input is generated from --seed. Seed 1 is the development
seed; a performance claim is validated again on seed 2, which no change
may be tuned on.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
# The shared thread pool gets two workers, so two load threads plus the
# pool never exceed four runnable threads.
POOL_THREADS = "2"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures, builds incrementally and runs the statistics test.

    All output goes to stderr, so stdout carries only the result.
    """
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
        # The exact-sample statistics every metric relies on.
        [str(BUILD_DIR / "perfbench_stats_test")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("failed: " + " ".join(cmd))


def command_output(cmd):
    """Stripped stdout of `cmd`, or "unknown" when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Digest of src/, which identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["codec-corpus", "load-scan", "ingest-durable"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    expected = expected_metrics(args.trace)
    build()

    env = dict(os.environ)
    env["FCBENCH_THREADS"] = POOL_THREADS
    # Metrics collection stays at its default (on); the engine's own span
    # sampling and slow-op log stay off.
    for var in ("FCBENCH_METRICS", "FCBENCH_TRACE_SAMPLE",
                "FCBENCH_SLOW_OP_MS"):
        env.pop(var, None)
    work = BUILD_DIR / "work"
    trace_out = BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    cmd = [str(RUNNER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail(f"metric set differs from BENCHMARK.json: {sorted(got.items())}")

    provenance = dict(result["provenance"])
    provenance.update({
        "commit": (command_output(["git", "rev-parse", "HEAD"])
                   if (ROOT / ".git").exists() else "unknown"),
        "src_sha256_16": source_digest(),
        "nproc": os.cpu_count(),
        "filesystem": command_output(["stat", "-f", "-c", "%T",
                                      str(BUILD_DIR)]),
        "wall_s": round(time.monotonic() - started, 3),
        "details": result["details"],
    })
    if args.trace:
        provenance["trace_file"] = str(trace_out.relative_to(ROOT))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
