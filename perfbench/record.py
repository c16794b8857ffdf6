"""Record the golden data the benchmark checks against: perfbench/data/golden.json.

    python3 perfbench/record.py [certify] [reduce-large] [cli-snf] [ring-lab]

For every matrix pool item it stores the digest of D and the cost of one
op; each certificate is first validated with the benchmark's own
arithmetic (oracle.py), so a digest is recorded only for a correct D.  For
ring-lab it stores each affordable candidate ring with the cost of its
full sweep (the median of RING_SWEEPS sweeps, each in a fresh
interpreter); candidates above RING_COST_CAP seconds are listed under
"ring-lab-excluded", and a report that fails its closed-form check stops
the recording.  Record on an otherwise idle machine: the cost bands are
only as good as these costs.  Costs
are used only to cut pools into cost strata.  Run it at the commit whose
D values the benchmark pins; parts not named keep their recorded data.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import env

env.import_edrkit()

from edrkit import Matrix, check_certificate, format_certificate, parse_certificate, parse_matrix, smith_normal_form  # noqa: E402
from edrkit.finite_lab import CHECKERS  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

RING_COST_CAP = 4.5
RING_SWEEPS = 3


def _validated_digest(carrier: str, a: Matrix, cert) -> str:
    grids = [m.payload_grid() for m in (a, cert.P, cert.D, cert.Q)]
    failure = oracle.check_product_and_units(carrier, *grids) or oracle.check_diagonal(carrier, grids[2])
    if failure is not None:
        raise SystemExit(f"record: certificate fails {failure}; refusing to record its digest")
    return oracle.digest(grids[2])


def record_matrices(item, count: int, round_trip: bool) -> dict:
    rings = workloads.carrier_rings()
    digests, costs = [], []
    for index in range(count):
        carrier, rows = item(index)
        ring = rings[carrier]
        text = inputs.matrix_text(rows)
        t0 = time.perf_counter()
        a = parse_matrix(ring, text)
        cert = smith_normal_form(ring, a)
        if round_trip:
            back = parse_certificate(ring, format_certificate(cert))
            if check_certificate(ring, a, back) is not None:
                raise SystemExit(f"record: item {index} is not accepted by the verifier")
        costs.append(round(time.perf_counter() - t0, 6))
        digests.append(_validated_digest(carrier, a, cert))
    return {"digest": digests, "cost": costs}


def sweep_seconds(desc) -> float:
    """Wall seconds of all eight checkers on one ring; raises when a report
    fails its closed-form check."""
    ring = workloads.build_ring(desc)
    card = inputs.ring_cardinality(desc)
    t0 = time.perf_counter()
    for prop, check in CHECKERS.items():
        report = check(ring, bound=None)
        if not report.holds or report.checked != card ** workloads.ARITY[prop.value]:
            raise SystemExit(f"record: {report.line()} fails its closed-form check")
    return time.perf_counter() - t0


def record_rings() -> tuple[list, list]:
    """Sweep each candidate RING_SWEEPS times, each in a fresh interpreter
    (cold caches) killed at the cost cap; keep the median cost."""
    kept, excluded = [], []
    for desc in inputs.ring_candidates():
        costs = []
        for _ in range(RING_SWEEPS):
            try:
                proc = subprocess.run(
                    [sys.executable, __file__, "--sweep", json.dumps(desc)],
                    capture_output=True,
                    text=True,
                    timeout=RING_COST_CAP,
                )
            except subprocess.TimeoutExpired:
                break
            if proc.returncode != 0:
                raise SystemExit(proc.stderr)
            costs.append(float(proc.stdout))
        if len(costs) < RING_SWEEPS or statistics.median(costs) > RING_COST_CAP:
            excluded.append({"ring": list(desc), "cost": f">{RING_COST_CAP}"})
        else:
            kept.append({"ring": list(desc), "cost": round(statistics.median(costs), 4)})
    return kept, excluded


def main(parts: list[str]) -> int:
    if parts[:1] == ["--sweep"]:
        print(sweep_seconds(tuple(json.loads(parts[1]))))
        return 0
    parts = parts or ["certify", "reduce-large", "cli-snf", "ring-lab"]
    golden = {}
    if os.path.exists(env.GOLDEN):
        with open(env.GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    if "certify" in parts:
        golden["certify"] = record_matrices(inputs.certify_item, inputs.CERTIFY_POOL, True)
    if "reduce-large" in parts:
        golden["reduce-large"] = {
            cls: record_matrices(lambda i, c=cls: inputs.reduce_item(c, i), inputs.REDUCE_POOL, False)
            for cls in inputs.REDUCE_CLASSES
        }
    if "cli-snf" in parts:
        golden["cli-snf"] = record_matrices(inputs.cli_snf_item, inputs.CLI_SNF_POOL, True)
    if "ring-lab" in parts:
        golden["ring-lab"], golden["ring-lab-excluded"] = record_rings()
    os.makedirs(os.path.dirname(env.GOLDEN), exist_ok=True)
    with open(env.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
