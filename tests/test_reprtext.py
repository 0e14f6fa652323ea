"""repr_text gives, for every float64, the bytes of repr(float(v)).

The numpy kernel covers [float(1e-4), 1); every other value goes through
repr() itself, so the oracle is repr() over raw bit patterns, the edges of
the kernel's range and the doubles where shortest digits tie."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge.reprtext import WIDTH, repr_text

LOW_BITS = int(np.float64(1e-4).view(np.uint64))
ONE_BITS = int(np.float64(1.0).view(np.uint64))


def texts(values) -> list:
    """repr_text's rows as str, spaces dropped; each row also checked to be
    right-aligned in spaces."""
    out = repr_text(np.asarray(values, np.float64))
    assert out.shape == (len(values), WIDTH) and out.dtype == np.uint8
    rows = [bytes(row).decode() for row in out]
    assert all(row.lstrip(" ") == row.strip(" ") for row in rows)
    return [row.lstrip(" ") for row in rows]


def assert_reprs(values):
    values = [float(v) for v in values]
    bad = [(repr(v), got) for v, got in zip(values, texts(values)) if got != repr(v)]
    assert bad == [], bad[:10]


def doubles(bits) -> np.ndarray:
    return np.asarray(bits, np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(LOW_BITS, ONE_BITS - 1), min_size=1, max_size=200))
def test_bit_patterns_in_range(bits):
    assert_reprs(doubles(bits))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_any_bit_pattern(bits):
    # mostly outside [1e-4, 1): the repr() fallback, mixed with the kernel's rows
    with np.errstate(invalid="ignore"):  # nan and inf % 1.0
        assert_reprs(np.concatenate([doubles(bits), doubles(bits) % 1.0]))


def test_powers_of_two_and_their_neighbours():
    # the 13 powers of two in [1e-4, 1) have a lower half-gap half as wide,
    # which the kernel's interval does not model
    powers = 2.0 ** -np.arange(1, 14)
    assert powers.min() > 1e-4 and 2.0**-14 < 1e-4
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, 1)]))


def test_neighbours_of_the_decades():
    # 30 neighbours on each side of 10^-1 ... 10^-4, where q changes
    values = []
    for decade in (0.1, 0.01, 0.001, 1e-4):
        bits = int(np.float64(decade).view(np.uint64))
        values += doubles(range(bits - 30, bits + 31)).tolist()
    assert_reprs(values)
    assert texts([np.nextafter(1e-4, 0), np.nextafter(1.0, 0)]) == [
        "9.999999999999999e-05", "0.9999999999999999"]


def test_short_decimals():
    # every decimal of 1 to 4 digits in (0, 1)
    assert_reprs([k / 10**n for n in range(1, 5) for k in range(1, 10**n)])


def test_low_bit_doubles_and_their_ties():
    # k 2^-n with k odd: exact decimals, where the shortest candidates tie
    values = np.array([k * 2.0**-n for n in range(1, 40) for k in range(1, 2**11, 2)
                       if 1e-4 <= k * 2.0**-n < 1])
    assert_reprs(values)
    # a tie: repr's last digit is the even one of two equally near candidates
    ties = 0
    for v in values.tolist():
        digits = repr(v)[2:]
        rest = Decimal(v).scaleb(len(digits)) % 1
        ties += rest == Decimal("0.5")
    assert ties > 500, ties


def test_values_outside_the_kernel():
    special = [1.0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               2.2250738585072014e-308, -2.2250738585072014e-308, -0.5, -1e-4,
               9.999e-05, 1.0000000000000002, 2.0, 1e16, 1.7976931348623157e308]
    assert_reprs(special)
    assert texts([-2.2250738585072014e-308]) == ["-2.2250738585072014e-308"]  # WIDTH bytes


def test_random_blocks_with_every_kind():
    rng = np.random.default_rng(0)
    values = rng.uniform(1e-4, 1.0, 5000)
    values[rng.integers(0, 5000, 500)] = 1.0
    values[rng.integers(0, 5000, 50)] = rng.standard_normal(50) * 1e-6
    values[rng.integers(0, 5000, 10)] = np.nan
    assert_reprs(values)
    assert texts(np.empty(0)) == []


@pytest.mark.parametrize("shape", [(0,), (1,), (7, 3)])
def test_shape(shape):
    assert repr_text(np.full(shape, 0.25)).shape == (int(np.prod(shape)), WIDTH)
