import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete._rng import SplitMix64, derive_seed
from kdelete.bounds import (
    E_LOWER,
    ceil_mul_sqrt,
    decay_step_holds,
    floor_power_bound,
    iroot,
    sqrt_bound_holds,
)


def test_e_lower_is_a_lower_rounding_of_e():
    # partial sums of 1/k! increase to e, so 25 terms give an exact
    # rational lower bound accurate far beyond the 1e-15 truncation
    partial = Fraction(0)
    fact = 1
    for k in range(26):
        fact *= max(k, 1)
        partial += Fraction(1, fact)
    assert E_LOWER < partial  # hence E_LOWER < e
    assert partial - E_LOWER < Fraction(1, 10**15)


@given(st.integers(0, 10**30), st.integers(1, 6))
def test_iroot_is_exact_floor(x, d):
    r = iroot(x, d)
    assert r**d <= x < (r + 1) ** d


@given(st.integers(0, 2**5000), st.integers(1, 400))
def test_iroot_is_exact_floor_past_float_range(x, d):
    r = iroot(x, d)
    assert r**d <= x < (r + 1) ** d


@given(st.integers(0, 10**12), st.integers(1, 5))
def test_iroot_inverts_powers(r, d):
    assert iroot(r**d, d) == r


@given(st.integers(1, 10**6), st.integers(1, 200), st.integers(1, 4),
       st.integers(1, 4))
def test_floor_power_bound_is_the_threshold(c, k, num, den):
    coeff = Fraction(c, 7)
    v = floor_power_bound(coeff, k, num, den)
    # v <= coeff / k**(num/den) < v + 1, raised to the den-th power
    assert Fraction(v) ** den * Fraction(k) ** num <= coeff**den
    assert Fraction(v + 1) ** den * Fraction(k) ** num > coeff**den


@given(st.integers(1, 10**6), st.integers(1, 10**9))
def test_sqrt_bounds_agree(c, x):
    f = math.isqrt(c * c * x)  # floor(c * sqrt(x))
    assert sqrt_bound_holds(f, c, x)
    assert not sqrt_bound_holds(f + 1, c, x)
    assert ceil_mul_sqrt(c, x) in (f, f + 1)
    assert ceil_mul_sqrt(c, x) >= c * math.isqrt(x)


def test_decay_step_examples():
    # (8 * diff)^r * n^2 >= d_prev^(r+1), exact integers
    assert decay_step_holds(d_prev=16, d_next=14, n=10, r=1)  # 16*100 >= 256
    assert not decay_step_holds(d_prev=1600, d_next=1599, n=10, r=1)
    assert decay_step_holds(d_prev=0, d_next=0, n=5, r=2)


def test_splitmix_stream_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    seq = [a.next_u64() for _ in range(8)]
    assert seq == [b.next_u64() for _ in range(8)]
    assert len(set(seq)) == 8


def test_derive_seed_separates_streams():
    seen = {derive_seed(0, tag, i) for tag in (0x11, 0x21) for i in range(50)}
    assert len(seen) == 100


@given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
def test_randrange_in_range(seed, bound):
    rng = SplitMix64(seed)
    for _ in range(10):
        assert 0 <= rng.randrange(bound) < bound


@given(st.integers(0, 2**64 - 1))
def test_shuffle_is_permutation(seed):
    rng = SplitMix64(seed)
    xs = list(range(20))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(20))


def _shuffle_reference(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates with one scalar randrange per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 500])
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 11, 2**64 - 1])
def test_shuffle_matches_scalar_fisher_yates(n, seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    xs, ys = list(range(n)), list(range(n))
    a.shuffle(xs)
    _shuffle_reference(b, ys)
    assert xs == ys
    assert a.next_u64() == b.next_u64()


@given(st.integers(0, 2**64 - 1), st.integers(0, 300))
@settings(max_examples=50)
def test_u64_array_matches_next_u64(seed, count):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert a._next_u64s(count).tolist() == [b.next_u64() for _ in range(count)]
    assert a.state == b.state
