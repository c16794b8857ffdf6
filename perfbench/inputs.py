"""Deterministic inputs for every workload.

Each input item is generated from a fixed string seed (its pool name and
index), so golden data recorded once stays valid for every run.  A run's
``--seed`` only decides which pool items are used and in which order,
through ``stratified_stream``.  The program under test only ever sees the
generated matrices, ring literals and argv.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# Matrix pools
# ---------------------------------------------------------------------------

CERTIFY_POOL = 3072
CLI_SNF_POOL = 512
# reduce-large size classes: name -> (carrier, side); the GF(5)[x] entries
# have degree <= REDUCE_POLY_DEGREE.
REDUCE_CLASSES = {
    "Z20": ("Z", 20),
    "Z24": ("Z", 24),
    "F10": ("F", 10),
    "F12": ("F", 12),
    "F14": ("F", 14),
}
REDUCE_POOL = 32
REDUCE_POLY_DEGREE = 1
ENTRY_BOUND = 99


def _int_rows(rng: random.Random, m: int, n: int) -> list[list[int]]:
    return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)] for _ in range(m)]


def _poly_rows(rng: random.Random, m: int, n: int, degree: int) -> list[list[tuple]]:
    return [
        [_trim(tuple(rng.randrange(5) for _ in range(degree + 1))) for _ in range(n)]
        for _ in range(m)
    ]


def _trim(coeffs: tuple) -> tuple:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _make_rank_deficient(rng: random.Random, rows: list, scale) -> list:
    """Keep r < min(m, n) random rows; every other row is a scaled copy of one
    of them.  Entries stay in range and zero diagonal entries appear in D."""
    m, n = len(rows), len(rows[0])
    r = rng.randint(1, min(m, n) - 1)
    basis = rows[:r]
    out = [list(row) for row in basis]
    for _ in range(m - r):
        src = rng.choice(basis)
        factor = rng.choice((1, -1) if scale is None else (1, 2, 3, 4))
        out.append([x * factor if scale is None else scale(x, factor) for x in src])
    rng.shuffle(out)
    return out


def _poly_scale(x: tuple, factor: int) -> tuple:
    return tuple(c * factor % 5 for c in x)


def certify_item(index: int) -> tuple[str, list]:
    """(carrier, rows) of certify pool item ``index``: about 3/4 over Z with
    sides 2..16 and entries in [-99, 99], 1/4 over GF(5)[x] with sides 2..8
    and entry degree <= 3; about 1/4 of each are rank-deficient."""
    rng = random.Random(f"certify/{index}")
    if rng.random() < 0.75:
        carrier, m, n = "Z", rng.randint(2, 16), rng.randint(2, 16)
        rows, scale = _int_rows(rng, m, n), None
    else:
        carrier, m, n = "F", rng.randint(2, 8), rng.randint(2, 8)
        rows, scale = _poly_rows(rng, m, n, 3), _poly_scale
    if rng.random() < 0.25:
        rows = _make_rank_deficient(rng, rows, scale)
    return carrier, rows


def reduce_item(cls: str, index: int) -> tuple[str, list]:
    carrier, n = REDUCE_CLASSES[cls]
    rng = random.Random(f"reduce-large/{cls}/{index}")
    if carrier == "Z":
        return carrier, _int_rows(rng, n, n)
    return carrier, _poly_rows(rng, n, n, REDUCE_POLY_DEGREE)


def cli_snf_item(index: int) -> tuple[str, list]:
    rng = random.Random(f"cli-snf/{index}")
    return "Z", _int_rows(rng, rng.randint(2, 6), rng.randint(2, 6))


def entry_literal(x) -> str:
    if isinstance(x, int):
        return str(x)
    return ",".join(str(c) for c in x) if x else "0"


def matrix_text(rows: list) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(entry_literal(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ring pool for ring-lab
# ---------------------------------------------------------------------------

CARD_RANGE = (24, 64)


def _poly_literals(p: int, degree: int) -> list[str]:
    """Monic polynomials of the given degree, as coefficient literals."""
    out = []
    for k in range(p**degree):
        low = [(k // p**i) % p for i in range(degree)]
        out.append(",".join(str(c) for c in low + [1]))
    return out


def ring_candidates() -> list[tuple[str, ...]]:
    """Every ring descriptor the ring-lab pool is drawn from.

    A descriptor is ``("ring", literal)`` or ``("quotient", base literal,
    generator literal)``; all have cardinality in CARD_RANGE.  Each family is
    thinned by a fixed stride to keep recording affordable.  The recorded
    pool keeps the candidates whose full sweep is affordable (see record.py).
    """
    lo, hi = CARD_RANGE
    out: list[tuple[str, ...]] = [("ring", f"Z/{n}") for n in range(lo, hi + 1)]
    for p, degree, stride in ((2, 5, 3), (3, 3, 2), (5, 2, 2)):
        out.extend(
            ("ring", f"GF({p})[x]/({f})") for f in _poly_literals(p, degree)[::stride]
        )
    out.extend(
        ("ring", f"Z/{a} x Z/{b}")
        for a in range(2, hi + 1)
        for b in range(a, hi // a + 1)
        if lo <= a * b <= hi
    )
    for p, degree, sides, stride in ((2, 2, range(6, 11), 2), (2, 3, range(3, 6), 2), (3, 2, range(3, 5), 3)):
        mixed = [
            ("ring", f"GF({p})[x]/({f}) x Z/{m}")
            for f in _poly_literals(p, degree)
            for m in sides
        ]
        out.extend(mixed[::stride])
    quotients = []
    for a in range(2, 33):
        for b in range(2, 33):
            if a * b > 8 * hi:
                continue
            for g in _divisors(a) + [0]:
                for h in _divisors(b) + [0]:
                    card = math.gcd(g, a) * math.gcd(h, b)
                    if (g, h) != (0, 0) and lo <= card <= hi and card < a * b:
                        quotients.append(("quotient", f"Z/{a} x Z/{b}", f"({g}|{h})"))
    out.extend(quotients[::30])
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


# ---------------------------------------------------------------------------
# Seeded, cost-stratified ordering
# ---------------------------------------------------------------------------


def spread_order(n: int) -> list[int]:
    """0..n-1 in van der Corput order (0, n/2, n/4, 3n/4, ...), so that every
    prefix samples the whole range evenly."""
    order: list[int] = []
    j = 0
    while len(order) < n:
        x, f, k = 0.0, 0.5, j
        while k:
            x += f * (k & 1)
            k >>= 1
            f /= 2
        band = int(x * n)
        if band not in order:
            order.append(band)
        j += 1
    return order


def stratified_stream(costs: list[float], strata: int, rng: random.Random, repeat: bool):
    """Yield pool indices so that every round of ``strata`` consecutive
    items holds one item from each cost band, in the same band order.

    The pool is sorted by its recorded cost and cut into ``strata`` bands of
    near-equal size; each band is shuffled by ``rng``.  A round visits the
    bands in ``spread_order``, so a run cut short after any number of items
    still sees every cost range in about the same proportion whatever its
    seed.  Without ``repeat`` the stream ends when the smallest band runs
    out, so no item is used twice.
    """
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    bands = [order[k * len(order) // strata : (k + 1) * len(order) // strata] for k in range(strata)]
    visit = spread_order(strata)
    rounds = min(len(band) for band in bands)
    while True:
        queues = [rng.sample(band, len(band)) for band in bands]
        for pos in range(rounds):
            for k in visit:
                yield queues[k][pos]
        if not repeat:
            return


def ring_cardinality(desc) -> int:
    """|R| of a ring descriptor, from its literal alone."""
    if desc[0] == "quotient":
        left, right = desc[1].split(" x ")
        g, h = (int(t) for t in desc[2].strip("()").split("|"))
        return math.gcd(g, int(left[2:])) * math.gcd(h, int(right[2:]))
    card = 1
    for atom in desc[1].split(" x "):
        if atom.startswith("Z/"):
            card *= int(atom[2:])
        else:  # GF(p)[x]/(c0,...,cd): p ** d
            p = int(atom[3 : atom.index(")")])
            card *= p ** atom[atom.index("/(") :].count(",")
    return card
