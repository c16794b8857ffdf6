"""The ring properties the finite-ring lab decides, and its default bounds.

A leaf module: the CLI builds its help text and its --bound default from
it without loading the lab.
"""

from __future__ import annotations

import enum

# Exhaustive checks refuse rings above these cardinalities unless the caller
# raises the bound; the stable-range-2 sweep grows like |R|^5.
DEFAULT_PAIR_BOUND = 50
DEFAULT_TRIPLE_BOUND = 16


class RingProperty(enum.Enum):
    STABLE_RANGE_1 = "stable-range-1"
    STABLE_RANGE_2 = "stable-range-2"
    IDEMPOTENT_STABLE_RANGE_1 = "idempotent-stable-range-1"
    CLEAN = "clean"
    EXCHANGE = "exchange"
    GELFAND = "gelfand"
    HERMITE = "hermite"
    DYADIC_RANGE_1 = "dyadic-range-1"
    ASSOCIATE_DIADEMS = "associate-diadems"
