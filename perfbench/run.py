"""edr-kit benchmark: one closed-loop client driving the public edrkit API.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, reduce-large, ring-lab, cli (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans under
perfbench/out/.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exits 2, printing no result, when the edrkit
sources are missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys

import env
from speed import SpeedLog

SETUP_PROBES = 15


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run, peak_kb: int, setup_s: float) -> dict:
    """Timings are at the reference speed of speed.py; unscaled figures are
    printed beside them by ``unscaled_figures``."""
    scaled = run.scaled_latencies()
    return {
        "ops_per_s": (run.attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (1000 * percentile(scaled, 0.50), "ms"),
        "latency_p90_ms": (1000 * percentile(scaled, 0.90), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def unscaled_figures(run) -> dict:
    """The end-to-end timings before scaling to the reference speed, and
    the speed factor applied to them, printed for reading only."""
    return {
        "unscaled.ops_per_s": (run.attempted / run.busy, "1/s"),
        "unscaled.latency_p50_ms": (1000 * percentile(run.latencies, 0.50), "ms"),
        "unscaled.latency_p90_ms": (1000 * percentile(run.latencies, 0.90), "ms"),
        "unscaled.speed_factor": (run.speed.factor(), "ratio"),
    }


def per_layer(run, probes: dict) -> dict:
    import workloads

    agg = run.tracer.aggregate()

    def busy(name):
        return agg.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    out = {}
    out["reduction.smith_normal_form.busy_s"] = (busy("reduction.smith_normal_form"), "s")
    for name in ("reduction.reduce_2x2_comaximal", "reduction.find_diadem", "rings.bezout_gcd"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    notes = run.notes
    out["reduction.entry_bits_max_pq"] = (notes["bits_pq"], "bits")
    out["reduction.entry_bits_max_d"] = (notes["bits_d"], "bits")
    out["reduction.entry_degree_max_pq"] = (notes["deg_pq"], "degree")
    out["reduction.entry_degree_max_d"] = (notes["deg_d"], "degree")
    for key in sorted(k for k in probes if k.startswith("rings.")):
        out[key] = (probes[key], "ns")
    out["rings.enumerate.busy_s"] = (busy("rings.enumerate"), "s")
    accept, product = busy("verification.accept"), busy("verification.product")
    out["verification.accept.busy_s"] = (accept, "s")
    out["verification.reject.busy_s"] = (busy("verification.reject"), "s")
    out["verification.product.busy_s"] = (product, "s")  # derived: see README
    out["verification.determinant.busy_s"] = (accept - product, "s")  # derived
    out["matrices.parse.busy_s"] = (busy("matrices.parse"), "s")
    out["matrices.format.busy_s"] = (busy("matrices.format"), "s")
    out["matrices.cert_bytes"] = (notes["cert_bytes"], "bytes")
    for name in workloads.ARITY:
        out[f"finite_lab.{name}.busy_s"] = (busy(f"finite_lab.{name}"), "s")
        out[f"finite_lab.{name}.checked"] = (run.checked[name], "count")
    out["cli.interpreter_s"] = (probes["cli.interpreter_s"], "s")
    out["cli.import_s"] = (probes["cli.import_s"], "s")
    for verb in workloads.CLI_VERBS:
        out[f"cli.{verb}.latency_p50_ms"] = (1000 * statistics.median(run.cli_latency[verb]), "ms")
    for layer in workloads.LAYERS:
        self_s = sum(v["self_s"] for k, v in agg.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
    (t_ops, t_s), (u_ops, u_s) = run.split[True], run.split[False]
    traced, untraced = (t_ops / t_s if t_s else 0.0), (u_ops / u_s if u_s else 0.0)
    out["trace.traced_ops_per_s"] = (traced, "1/s")
    out["trace.untraced_ops_per_s"] = (untraced, "1/s")
    out["trace.overhead_ops_per_s"] = (traced - untraced, "1/s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "reduce-large", "ring-lab", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.import_edrkit()
    import workloads

    with open(env.GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    try:
        workloads.drive(run)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(who).ru_maxrss
        if args.trace:
            probes = workloads.census(run)
        setup_s = workloads.interpreter_probes("import edrkit", SETUP_PROBES, log=SpeedLog())
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(run, probes)
        os.makedirs(env.OUT_DIR, exist_ok=True)
        run.tracer.write(os.path.join(env.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(run, peak_kb, setup_s)

    for error in run.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    if run.exhausted:
        print("perfbench: ring pool exhausted before --seconds elapsed", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} ops={run.attempted} "
        f"failed={run.failed} timed_s={run.busy:.3f}"
    )
    print(f"  error_rate = {run.failed / max(run.attempted, 1):.6f} ratio")
    shown = metrics if args.trace else {**metrics, **unscaled_figures(run)}
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
