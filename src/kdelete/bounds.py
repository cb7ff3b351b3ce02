"""Exact rational arithmetic for the guarantee checks.

Every guaranteed inequality in this package compares an integer edge count
against a closed-form bound.  Bounds involving e use E_LOWER, a rational lower
rounding of e within 1e-12 (underestimating e enlarges n^2/(e*k) style bounds,
so a genuinely satisfied bound can never be reported as violated).  Bounds
with fractional exponents are compared by raising both sides to an integer
power, which keeps every verdict exact.
"""

from fractions import Fraction
from math import isqrt

# e = 2.718281828459045235360..., truncated after 15 decimal digits.
E_LOWER = Fraction(2718281828459045, 10**15)


def iroot(x: int, d: int) -> int:
    """Largest integer r with r**d <= x (x >= 0, d >= 1)."""
    if x < 0 or d < 1:
        raise ValueError("iroot requires x >= 0, d >= 1")
    if x == 0:
        return 0
    if d == 2:
        return isqrt(x)
    # Newton's step descends from 2**ceil(bits/d), above the root, in integers.
    r = 1 << -(-x.bit_length() // d)
    while True:
        y = ((d - 1) * r + x // r ** (d - 1)) // d
        if y >= r:
            return r
        r = y


def floor_power_bound(coeff: Fraction, k: int, num: int, den: int) -> int:
    """floor(coeff / k**(num/den)) computed exactly."""
    target = coeff**den / Fraction(k) ** num
    if target < 0:
        raise ValueError("negative bound")
    return iroot(target.numerator // target.denominator, den)


def sqrt_bound_holds(value: int, c: int, x: int) -> bool:
    """Exact test of value <= c * sqrt(x) for nonnegative integers."""
    if value <= 0:
        return True
    return value * value <= c * c * x


def decay_step_holds(d_prev: int, d_next: int, n: int, r: int) -> bool:
    """Exact per-step decay test for degree-sum trajectories.

    With normalized x = D/n**2 the step promises
    x_next <= x_prev - x_prev**((r+1)/r) / 8, which rearranges to
    (8*(d_prev - d_next))**r * n**2 >= d_prev**(r+1) over the integers.
    """
    diff = d_prev - d_next
    if diff < 0:
        return False
    return (8 * diff) ** r * n * n >= d_prev ** (r + 1)


def ceil_mul_sqrt(c: int, x: int) -> int:
    """ceil(c * sqrt(x)) for nonnegative integers, computed exactly."""
    t = isqrt(c * c * x)
    return t if t * t == c * c * x else t + 1
