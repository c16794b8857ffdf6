"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Every workload runs for a tiny timed budget with error_rate 0, untraced and traced;
a deliberately corrupted expectation (a wrong D digest, a wrong closed-form
``checked``) must be counted as failed ops; and a directory that holds
only the benchmark must make run.py exit non-zero without a result line.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import env

env.import_edrkit()

import run as bench  # noqa: E402
import workloads  # noqa: E402

TINY_SECONDS = 0.4


def load_golden() -> dict:
    with open(env.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def run_tiny(workload: str, golden: dict, traced: bool = False, arity=workloads.ARITY):
    run = workloads.Run(workload, 0, TINY_SECONDS, traced, golden, arity)
    try:
        workloads.drive(run)
        probes = workloads.census(run) if traced else None
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    return run, probes


def corrupt_digests(golden: dict, key: str) -> dict:
    bad = copy.deepcopy(golden)
    pools = bad[key].values() if key == "reduce-large" else [bad[key]]
    for pool in pools:
        pool["digest"] = ["0" * 16 for _ in pool["digest"]]
    return bad


def bare_directory_fails() -> bool:
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    bare = os.path.join(env.OUT_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            env.BENCH_DIR, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    golden = load_golden()
    checks: list[tuple[str, bool]] = []
    for workload in workloads.WORKLOADS:
        run, _ = run_tiny(workload, golden)
        checks.append((f"{workload}: runs with error_rate 0 ({run.attempted} ops)", run.attempted > 0 and run.failed == 0))
    run, probes = run_tiny("certify", golden, traced=True)
    layer = bench.per_layer(run, probes)
    checks.append(("certify traced: census passes and per-layer metrics assemble", run.failed == 0 and len(layer) > 60))
    for workload, key in (("certify", "certify"), ("reduce-large", "reduce-large"), ("cli", "cli-snf")):
        run, _ = run_tiny(workload, corrupt_digests(golden, key))
        checks.append((f"{workload}: wrong D digest counted as failed", run.failed > 0))
    wrong_arity = dict(workloads.ARITY, clean=2)
    run, _ = run_tiny("ring-lab", golden, arity=wrong_arity)
    checks.append(("ring-lab: wrong closed-form checked counted as failed", run.failed > 0))
    checks.append(("bare directory: run.py exits non-zero without a result", bare_directory_fails()))
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
