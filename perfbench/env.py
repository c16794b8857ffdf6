"""Locate the checkout and import the edrkit sources that live in it."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
GOLDEN = os.path.join(BENCH_DIR, "data", "golden.json")


def import_edrkit():
    """Import edrkit from ``<checkout>/src``, never from an installed copy.

    Exits with status 2 when the sources are missing, so a directory that
    holds only the benchmark fails before printing a result.
    """
    if not os.path.isfile(os.path.join(SRC, "edrkit", "__init__.py")):
        sys.stderr.write(f"perfbench: no edrkit sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    # Swollen certificate entries can pass CPython's default 4300-digit
    # int/str conversion limit, and format_certificate then raises (see
    # perfbench/README.md); lift the limit in this process only.
    sys.set_int_max_str_digits(0)
    import edrkit

    if os.path.dirname(os.path.abspath(edrkit.__file__)) != os.path.join(SRC, "edrkit"):
        sys.stderr.write(f"perfbench: edrkit imported from {edrkit.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return edrkit


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
