import sys

import pytest


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
