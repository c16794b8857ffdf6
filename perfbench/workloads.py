"""Workload ops, their output checks, the closed loop and the traced census.

One client, at most one op in flight.  Every op times only its calls into
edrkit; input generation, tampering and every output check run outside
the timed region.  ``env.import_edrkit()`` must run before this module is
imported, so that ``edrkit`` resolves to the checkout's sources.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time

import edrkit.reduction
from edrkit import (
    IntegerRing,
    Matrix,
    PolynomialRing,
    ReductionCertificate,
    check_certificate,
    format_certificate,
    parse_certificate,
    parse_matrix,
    quotient_ring,
    ring_parse,
    smith_normal_form,
)
from edrkit.finite_lab import CHECKERS

import env
import inputs
import oracle
from spans import Tracer
import speed
from speed import SpeedLog

_now = speed.clock

WORKLOADS = ("certify", "reduce-large", "ring-lab", "cli")
TAMPER_KINDS = ("product", "unit-determinant", "chain", "normalization")
TAMPER_SHARE = 0.2
CERTIFY_STRATA = 16
REDUCE_STRATA = 8
REDUCE_ROUND = {"Z20": 2, "Z24": 2, "F10": 2, "F12": 2, "F14": 2}
RING_STRATA = 34
CLI_SNF_STRATA = 4
# Outer quantifier arity of each exhaustive checker: a report that holds
# must have checked |R| ** arity tuples.
ARITY = {
    "stable-range-1": 2,
    "stable-range-2": 3,
    "idempotent-stable-range-1": 2,
    "clean": 1,
    "exchange": 2,
    "gelfand": 1,
    "hermite": 2,
    "dyadic-range-1": 2,
}
CLI_VERBS = ("snf", "verify", "check", "diadem", "witness", "malformed")
# Public names wrapped as edrkit.reduction binds them, with their span names.
REDUCTION_WRAPS = (
    ("bezout_gcd", "rings.bezout_gcd"),
    ("reduce_2x2_comaximal", "reduction.reduce_2x2_comaximal"),
    ("find_diadem", "reduction.find_diadem"),
)
LAYERS = ("rings", "matrices", "reduction", "verification", "finite_lab", "cli")
HEADER = "# edr-kit v1"


def carrier_rings() -> dict:
    """The two reduction carriers, keyed as inputs.py names them."""
    return {"Z": IntegerRing(), "F": PolynomialRing(5)}


def build_ring(desc):
    if desc[0] == "ring":
        return ring_parse(desc[1])
    base = ring_parse(desc[1])
    return quotient_ring(base, base.parse_element(desc[2]))


class Run:
    """State of one benchmark run: inputs, tallies and (optionally) spans."""

    def __init__(self, workload, seed, seconds, traced, golden, arity=ARITY):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.golden = golden
        self.arity = arity
        self.rng = random.Random(f"{workload}/{seed}")
        self.rings = carrier_rings()
        self.tracer = Tracer() if traced else None
        self.tracing = False
        self.latencies: list[float] = []
        self.speed = SpeedLog()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.busy = 0.0
        self.split = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [ops, seconds]
        self.exhausted = False
        self.notes = {"bits_pq": 0, "bits_d": 0, "deg_pq": 0, "deg_d": 0, "cert_bytes": 0}
        self.checked = {name: 0 for name in ARITY}
        self.cli_latency = {verb: [] for verb in CLI_VERBS}
        self.workdir = os.path.join(env.OUT_DIR, f"work-{os.getpid()}")

    # -- accounting ----------------------------------------------------

    def record(self, elapsed: float, error: str | None) -> None:
        self.attempted += 1
        self.latencies.append(elapsed)
        self.busy += elapsed
        self.split[self.tracing][0] += 1
        self.split[self.tracing][1] += elapsed
        self.note_error(error)

    def scaled_latencies(self) -> list[float]:
        """Op latencies at the reference speed (see speed.py)."""
        factor = self.speed.factor()
        return [lat * factor for lat in self.latencies]

    def tally(self, error: str | None) -> None:
        """Count a census op: attempted, and failed when it has an error."""
        self.attempted += 1
        self.note_error(error)

    def note_error(self, error: str | None) -> None:
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)

    # -- traced calls --------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        idx = self.tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracer.end(idx)

    def verify(self, ring, a, cert):
        if not self.tracing:
            return check_certificate(ring, a, cert)
        idx = self.tracer.begin("verification.check")
        verdict = "raised"
        try:
            verdict = check_certificate(ring, a, cert)
        finally:
            self.tracer.end(
                idx, "verification.accept" if verdict is None else "verification.reject"
            )
        return verdict

    def set_tracing(self, on: bool) -> None:
        if on and not self.tracing:
            for attr, name in REDUCTION_WRAPS:
                self.tracer.install(edrkit.reduction, attr, name)
        elif not on and self.tracing:
            self.tracer.uninstall()
        self.tracing = on

    def note_certificate(self, carrier: str, cert, text_bytes: int = 0) -> None:
        """Largest entry size in P/Q and in D (bits over Z, degree over GF(5)[x])."""
        if carrier == "Z":
            size, keys = (lambda e: abs(e.payload).bit_length()), ("bits_pq", "bits_d")
        else:
            size, keys = (lambda e: max(len(e.payload) - 1, 0)), ("deg_pq", "deg_d")
        pq = max(size(e) for e in cert.P.entries + cert.Q.entries)
        d = max(size(e) for e in cert.D.entries)
        self.notes[keys[0]] = max(self.notes[keys[0]], pq)
        self.notes[keys[1]] = max(self.notes[keys[1]], d)
        self.notes["cert_bytes"] += text_bytes


# ---------------------------------------------------------------------------
# certify: parse_matrix -> smith_normal_form -> format -> parse -> check
# ---------------------------------------------------------------------------


def _rows_of(m: Matrix) -> list[list]:
    return [list(m.row(i)) for i in range(m.rows)]


def _matrix(ring, rows) -> Matrix:
    return Matrix(ring, len(rows), len(rows[0]), tuple(e for row in rows for e in row))


def tamper(ring, a: Matrix, cert, kind: str, rng: random.Random):
    """A copy of ``cert`` that breaks exactly one clause, and that clause.

    Falls back to a ``product`` tamper when ``kind`` has no valid target
    (for example ``chain`` on a D whose diagonal entries are all equal)."""
    p, d, q = _rows_of(cert.P), _rows_of(cert.D), _rows_of(cert.Q)
    poly = isinstance(ring, PolynomialRing)
    diag = cert.D.diagonal()
    k = len(diag)
    if kind == "chain":
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if diag[i] != diag[j]]
        if pairs:
            i, j = rng.choice(pairs)
            for grid in (p, d):
                grid[i], grid[j] = grid[j], grid[i]
            for grid in (q, d):
                for row in grid:
                    row[i], row[j] = row[j], row[i]
            return ReductionCertificate(_matrix(ring, p), _matrix(ring, d), _matrix(ring, q)), kind
        kind = "product"
    if kind in ("unit-determinant", "normalization"):
        if kind == "unit-determinant":
            factor = ring.element((0, 1) if poly else 2)
            i = rng.randrange(len(p))
        else:
            factor = ring.element(2 if poly else -1)
            nonzero = [i for i in range(k) if diag[i] != ring.zero]
            i = rng.choice(nonzero)
        p[i] = [ring.mul(factor, e) for e in p[i]]
        d[i] = [ring.mul(factor, e) for e in d[i]]
        return ReductionCertificate(_matrix(ring, p), _matrix(ring, d), cert.Q), kind
    nonzero_rows = [j for j in range(a.rows) if any(e != ring.zero for e in a.row(j))]
    i, j = rng.randrange(len(p)), rng.choice(nonzero_rows)
    p[i][j] = ring.add(p[i][j], ring.one)
    return ReductionCertificate(_matrix(ring, p), cert.D, cert.Q), "product"


def certify_op(run: Run, carrier: str, rows: list, want_digest: str | None, kind: str | None):
    ring = run.rings[carrier]
    text = inputs.matrix_text(rows)
    t0 = _now()
    a = run.call("matrices.parse", parse_matrix, ring, text)
    cert = run.call("reduction.smith_normal_form", smith_normal_form, ring, a)
    t1 = _now()
    expected = None
    if kind is not None:
        cert, expected = tamper(ring, a, cert, kind, run.rng)
    t2 = _now()
    out = run.call("matrices.format", format_certificate, cert)
    back = run.call("matrices.parse", parse_certificate, ring, out)
    verdict = run.verify(ring, a, back)
    elapsed = (t1 - t0) + (_now() - t2)
    if verdict != expected:
        return elapsed, f"certify: verdict {verdict!r}, expected {expected!r}"
    if expected is None:
        if want_digest is not None and oracle.digest(back.D.payload_grid()) != want_digest:
            return elapsed, "certify: D differs from the recorded digest"
        if run.tracing:
            run.note_certificate(carrier, back, len(out))
            return elapsed, product_probe(run, ring, a, back)
    return elapsed, None


def product_probe(run: Run, ring, a, cert) -> str | None:
    """Derived ``verification.product`` time: reject a copy with D tampered,
    which fails the product clause, the first one checked."""
    entries = list(cert.D.entries)
    entries[0] = ring.add(entries[0], ring.one)
    bad = ReductionCertificate(cert.P, Matrix(ring, cert.D.rows, cert.D.cols, tuple(entries)), cert.Q)
    verdict = run.call("verification.product", check_certificate, ring, a, bad)
    return None if verdict == "product" else f"product probe: verdict {verdict!r}"


def certify_chunks(run: Run):
    pool = run.golden["certify"]
    stream = inputs.stratified_stream(pool["cost"], CERTIFY_STRATA, run.rng, repeat=True)
    while True:
        ops = []
        for _ in range(CERTIFY_STRATA):
            index = next(stream)
            kind = run.rng.choice(TAMPER_KINDS) if run.rng.random() < TAMPER_SHARE else None
            carrier, rows = inputs.certify_item(index)
            ops.append(lambda c=carrier, r=rows, i=index, k=kind: certify_op(run, c, r, pool["digest"][i], k))
        yield ops


# ---------------------------------------------------------------------------
# reduce-large: smith_normal_form alone
# ---------------------------------------------------------------------------


def reduce_op(run: Run, carrier: str, rows: list, want_digest: str):
    ring = run.rings[carrier]
    a = Matrix.from_rows(ring, rows)
    t0 = _now()
    cert = run.call("reduction.smith_normal_form", smith_normal_form, ring, a)
    elapsed = _now() - t0
    return elapsed, check_reduction(run, carrier, a, cert, want_digest)


def check_reduction(run: Run, carrier: str, a, cert, want_digest: str) -> str | None:
    d = cert.D.payload_grid()
    if oracle.digest(d) != want_digest:
        return "reduce: D differs from the recorded digest"
    failure = oracle.check_product_and_units(
        carrier, a.payload_grid(), cert.P.payload_grid(), d, cert.Q.payload_grid()
    ) or oracle.check_diagonal(carrier, d)
    if failure is not None:
        return f"reduce: certificate fails {failure}"
    if run.tracing:
        run.note_certificate(carrier, cert)
    return None


def reduce_chunks(run: Run):
    pools = run.golden["reduce-large"]
    streams = {
        cls: inputs.stratified_stream(pools[cls]["cost"], REDUCE_STRATA, run.rng, repeat=True)
        for cls in REDUCE_ROUND
    }
    while True:
        ops = []
        for cls, count in REDUCE_ROUND.items():
            for _ in range(count):
                index = next(streams[cls])
                carrier, rows = inputs.reduce_item(cls, index)
                want = pools[cls]["digest"][index]
                ops.append(lambda c=carrier, r=rows, w=want: reduce_op(run, c, r, w))
        run.rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# ring-lab: one exhaustive checker call per op, no ring twice
# ---------------------------------------------------------------------------


def checker_op(run: Run, ring, prop, card: int):
    name = prop.value
    t0 = _now()
    report = run.call(f"finite_lab.{name}", CHECKERS[prop], ring, bound=None)
    elapsed = _now() - t0
    want = card ** run.arity[name]
    if run.tracing:
        run.checked[name] += report.checked
    if report.property is not prop or not report.holds or report.checked != want:
        return elapsed, f"ring-lab: {report.line()} (expected holds=true checked={want})"
    return elapsed, None


def ring_ops(run: Run, desc) -> list:
    ring = build_ring(desc)
    card = inputs.ring_cardinality(desc)

    def op(prop, first):
        result = checker_op(run, ring, prop, card)
        if first and run.tracing:
            enumerate_probe(run, build_ring(desc))
        return result

    return [lambda p=prop, f=(k == 0): op(p, f) for k, prop in enumerate(CHECKERS)]


def ring_chunks(run: Run):
    """One ring per chunk: its eight checkers."""
    pool = run.golden["ring-lab"]
    stream = inputs.stratified_stream([r["cost"] for r in pool], RING_STRATA, run.rng, repeat=False)
    for index in stream:
        yield ring_ops(run, tuple(pool[index]["ring"]))
    run.exhausted = True


# ---------------------------------------------------------------------------
# cli: one `python -m edrkit.cli` subprocess per op
# ---------------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cli_op(run: Run, verb: str, argv: list[str], check):
    """Run one CLI verb; ``check(stdout, returncode)`` returns an error or None."""
    idx = run.tracer.begin(f"cli.{verb}") if run.tracing else None
    t0 = _now()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "edrkit.cli", *argv],
            cwd=run.workdir,
            env=env.child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        elapsed = _now() - t0
        if idx is not None:
            run.tracer.end(idx)
    if run.tracing:
        run.cli_latency[verb].append(elapsed)
    return elapsed, check(proc.stdout, proc.returncode)


def _lines_after_header(stdout: str) -> list[str] | None:
    lines = stdout.splitlines()
    return lines[1:] if lines and lines[0] == HEADER else None


def cli_snf_check(want_digest: str, rows: list, cert_path: str):
    def check(stdout, code):
        if code != 0 or _lines_after_header(stdout) is None:
            return f"cli snf: exit {code}"
        p, d, q = oracle.parse_z_certificate(stdout)
        if oracle.digest(d) != want_digest:
            return "cli snf: D differs from the recorded digest"
        failure = oracle.check_product_and_units("Z", rows, p, d, q) or oracle.check_diagonal("Z", d)
        if failure is not None:
            return f"cli snf: certificate fails {failure}"
        _write(cert_path, stdout)
        return None

    return check


def cli_expect(verb: str, want_code: int, want_lines):
    """Check exit code and the exact lines after the version header."""

    def check(stdout, code):
        lines = _lines_after_header(stdout)
        if code != want_code or lines != want_lines:
            return f"cli {verb}: exit {code}, output {stdout[:200]!r}"
        return None

    return check


def cli_witness_check(a: int, b: int, c: int):
    def check(stdout, code):
        lines = _lines_after_header(stdout)
        if code != 0 or not lines or len(lines) != 1:
            return f"cli witness: exit {code}, output {stdout[:200]!r}"
        fields = dict(item.split("=", 1) for item in lines[0].split())
        p, q = int(fields["p"]), int(fields["q"])
        if math.gcd(a + c * p, b + c * q) != 1:
            return f"cli witness: gcd({a} + {c}*{p}, {b} + {c}*{q}) != 1"
        return None

    return check


def cli_usage_check(stdout, code):
    if code != 2 or stdout:
        return f"cli malformed argv: exit {code}, output {stdout[:200]!r}"
    return None


def _coprime_ints(rng: random.Random, count: int, bound: int) -> list[int]:
    while True:
        values = [rng.randint(-bound, bound) for _ in range(count)]
        if math.gcd(*values) == 1:
            return values


def _argv_ints(values) -> list[str]:
    return ["--", *(str(v) for v in values)]


def diadem_expectation(a: int, b: int) -> list[str]:
    """First t in 0, 1, -1, 2, ... with w = a + b*t nonzero; w is a diadem
    over Z (a unit, or a nonzero value whose finite quotient has stable
    range 1)."""
    t = 0 if a != 0 else 1
    w = a + b * t
    evidence = "trivial-unit" if abs(w) == 1 else "quotient-sr1"
    return [f"multiplier={t} diadem={w} evidence={evidence}"]


def check_all_lines(spec: str, card: int, arity) -> list[str]:
    return [
        f"property={name} ring={spec} holds=true checked={card ** arity[name]}"
        for name in (prop.value for prop in CHECKERS)
    ]


def malformed_argv(rng: random.Random, serial: int) -> list[str]:
    return rng.choice(
        (
            ["snf"],
            ["check", "Z/12", f"no-such-property-{serial}"],
            ["diadem", "Q", str(serial), "1"],
            ["witness", "Z", "1", f"x{serial}", "2"],
            [f"frobnicate-{serial}"],
            ["check", f"Z/{serial % 2}", "all"],
        )
    )


def cli_pair(run: Run, stream, serial: int) -> list:
    """snf of a pool matrix, then verify of that output."""
    index = next(stream)
    _, rows = inputs.cli_snf_item(index)
    matrix_path = os.path.join(run.workdir, f"m{serial}.txt")
    cert_path = os.path.join(run.workdir, f"c{serial}.txt")
    _write(matrix_path, inputs.matrix_text(rows))
    want = run.golden["cli-snf"]["digest"][index]
    return [
        lambda: cli_op(run, "snf", ["snf", "Z", matrix_path], cli_snf_check(want, rows, cert_path)),
        lambda: cli_op(
            run, "verify", ["verify", "Z", matrix_path, cert_path], cli_expect("verify", 0, ["valid"])
        ),
    ]


def cli_round(run: Run, stream, serial: int, with_malformed: bool) -> list:
    rng = run.rng
    a, b = _coprime_ints(rng, 2, 60)
    x, y, z = _coprime_ints(rng, 3, 10**4)
    ops = cli_pair(run, stream, serial)
    ops += [
        lambda: cli_op(
            run, "diadem", ["diadem", "Z", *_argv_ints((a, b))],
            cli_expect("diadem", 0, diadem_expectation(a, b)),
        ),
        lambda: cli_op(run, "witness", ["witness", "Z", *_argv_ints((x, y, z))], cli_witness_check(x, y, z)),
        lambda: cli_op(
            run, "check", ["check", "Z/12", "all"], cli_expect("check", 0, check_all_lines("Z/12", 12, run.arity))
        ),
    ]
    if with_malformed:
        argv = malformed_argv(rng, serial)
        ops.append(lambda: cli_op(run, "malformed", argv, cli_usage_check))
    return ops


def cli_chunks(run: Run):
    os.makedirs(run.workdir, exist_ok=True)
    pool = run.golden["cli-snf"]
    stream = inputs.stratified_stream(pool["cost"], CLI_SNF_STRATA, run.rng, repeat=True)
    serial = 0
    while True:
        ops = cli_round(run, stream, serial, False) + cli_round(run, stream, serial + 1, True)
        serial += 2
        yield ops


CHUNKS = {
    "certify": certify_chunks,
    "reduce-large": reduce_chunks,
    "ring-lab": ring_chunks,
    "cli": cli_chunks,
}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def drive(run: Run) -> None:
    """Run whole chunks of ops until their summed wall time reaches
    ``run.seconds``, so every run ends on a whole chunk of the input mix.

    Each workload yields its ops in chunks of the same input mix.  In a
    traced run chunk n is traced when n has an odd number of one bits (the
    Thue-Morse sequence), which splits the bands of ``spread_order`` evenly
    between the traced and untraced halves; their ops_per_s difference is
    the tracing overhead.  Calibration samples for the reference-speed
    clock run between ops, outside every timed region, and once more at
    the end; in an untraced in-process run, also from a timer during ops,
    with their time kept out of the op (see speed.py).
    """
    # A CLI op's child would compete with the timer's samples for the CPU.
    ticks = run.tracer is None and run.workload != "cli"
    if ticks:
        run.speed.start_ticks()
    try:
        _loop(run)
    finally:
        if ticks:
            run.speed.stop_ticks()
        run.speed.maybe_sample()


def _loop(run: Run) -> None:
    for number, ops in enumerate(CHUNKS[run.workload](run)):
        run.set_tracing(run.tracer is not None and bin(number).count("1") % 2 == 1)
        try:
            for op in ops:
                run.speed.maybe_sample()
                root = run.tracer.begin(f"op.{run.workload}") if run.tracing else None
                t0 = _now()
                try:
                    elapsed, error = op()
                except Exception as exc:  # a raising op is a failed op
                    elapsed, error = _now() - t0, f"{run.workload}: {type(exc).__name__}: {exc}"
                finally:
                    if root is not None:
                        run.tracer.end(root)
                run.record(elapsed, error)
        finally:
            run.set_tracing(False)
        if run.busy >= run.seconds:
            return


# ---------------------------------------------------------------------------
# Census: a small fixed battery run once per traced run, after the loop, so
# every per-layer figure exists on every workload
# ---------------------------------------------------------------------------

CENSUS_Z = [[2, 0], [0, 3]]  # chain repair: D = diag(1, 6)
CENSUS_F = [[(0, 1), ()], [(), (1, 1)]]  # diag(x, x + 1) -> D = diag(1, x^2 + x)
CENSUS_TAMPER = [[4, 6, 1], [6, 9, 5], [2, 3, 7]]
CENSUS_RING = "Z/12"
MICRO_BATCH = 256
MICRO_PASSES = 5


def micro_rings() -> list:
    """(carrier name, fresh ring) for each carrier of the payload batch."""
    base = ring_parse("Z/16 x Z/9")
    return [
        ("Z", IntegerRing()),
        ("GF5_x", PolynomialRing(5)),
        ("Z_n", ring_parse("Z/97")),
        ("GFp_x_f", ring_parse("GF(3)[x]/(1,2,0,1)")),
        ("coset", quotient_ring(base, base.parse_element("(4|0)"))),
        ("product", ring_parse("Z/4 x Z/9")),
    ]


def micro_ns(pairs, fn) -> float:
    """Median over passes of the ns per public ring call."""
    per = []
    for _ in range(MICRO_PASSES):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        per.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per)


def enumerate_probe(run: Run, ring) -> None:
    """``rings.enumerate``: the first elements() and the first is_unit on a
    ring instance whose caches are still cold."""
    idx = run.tracer.begin("rings.enumerate")
    try:
        ring.is_unit(next(iter(ring.elements())))
    finally:
        run.tracer.end(idx)


PROBE_SAMPLES = 4


def interpreter_probes(code: str, count: int, report_stdout: bool = False, log: SpeedLog | None = None) -> float:
    """Median wall seconds of ``python -c code`` (or of the float it prints);
    with ``log``, calibration samples run around each probe and the
    median is scaled to the reference speed."""
    values = []
    for _ in range(count):
        if log is not None:
            log.block(PROBE_SAMPLES)
        t0 = _now()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env.child_env(), capture_output=True, text=True, timeout=120
        )
        wall = _now() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"probe {code!r} failed: {proc.stderr.strip()}")
        values.append(float(proc.stdout) if report_stdout else wall)
    if log is None:
        return statistics.median(values)
    log.block(PROBE_SAMPLES)
    return statistics.median(values) * log.factor()


def census(run: Run) -> dict:
    """Fixed probes through every layer; returns the probe-only metrics."""
    rng = random.Random(f"census/{run.seed}")
    found: dict = {}
    run.set_tracing(True)
    try:
        digests = {
            "Z": oracle.digest([[1, 0], [0, 6]]),
            "F": oracle.digest([[(1,), ()], [(), (0, 1, 1)]]),
        }
        for carrier, rows in (("Z", CENSUS_Z), ("F", CENSUS_F)):
            run.tally(certify_op(run, carrier, rows, digests[carrier], None)[1])
        for kind in TAMPER_KINDS:
            run.tally(certify_op(run, "Z", CENSUS_TAMPER, None, kind)[1])
        for name, ring in micro_rings():
            if ring.finite:
                enumerate_probe(run, ring)
                elements = list(ring.elements())
                sample = lambda: rng.choice(elements)
            elif name == "Z":
                sample = lambda: ring.element(rng.randint(-(10**6), 10**6))
            else:
                sample = lambda: ring.element(tuple(rng.randrange(5) for _ in range(8)))
            pairs = [(sample(), sample()) for _ in range(MICRO_BATCH)]
            found[f"rings.mul_ns.{name}"] = micro_ns(pairs, ring.mul)
            found[f"rings.add_ns.{name}"] = micro_ns(pairs, ring.add)
        census_ring = ring_parse(CENSUS_RING)
        for prop in CHECKERS:
            run.tally(checker_op(run, census_ring, prop, inputs.ring_cardinality(("ring", CENSUS_RING)))[1])
        os.makedirs(run.workdir, exist_ok=True)
        stream = inputs.stratified_stream(run.golden["cli-snf"]["cost"], CLI_SNF_STRATA, rng, repeat=True)
        for op in cli_round(run, stream, 10**6, True):
            run.tally(op()[1])
    finally:
        run.set_tracing(False)
    found["cli.interpreter_s"] = interpreter_probes("pass", 5)
    found["cli.import_s"] = interpreter_probes(
        "import time; t = time.perf_counter(); import edrkit; print(time.perf_counter() - t)", 5, True
    )
    return found
