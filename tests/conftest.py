import sys

import pytest

from edrkit.rings import Ring

ENUMERATION_LIMIT = 10**4


@pytest.fixture
def default_int_str_limit():
    """Pin CPython's default 4300-digit int/str conversion limit for one test,
    whatever PYTHONINTMAXSTRDIGITS or an earlier test set."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail the test as soon as it enumerates a ring of more than 10^4
    elements; pytest.fail raises past the CLI's catch-all handler."""
    enumerate_ring = Ring.__dict__["_payloads"]

    def guarded(ring):
        if ring.finite and ring.cardinality > ENUMERATION_LIMIT:
            pytest.fail(f"{ring.spec()} was enumerated")
        return enumerate_ring.__get__(ring, type(ring))

    monkeypatch.setattr(Ring, "_payloads", property(guarded))
