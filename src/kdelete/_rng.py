"""Seeded splitmix64 stream used by every randomized routine in the package.

The generator is pinned here so results are reproducible from a single 64-bit
seed: state advances by the golden-ratio increment and each output is run
through the standard xor-shift-multiply finalizer.  Floats take the top 53
bits.  randrange uses plain modulo reduction; the bias is negligible at the
range sizes used here and keeping the reduction trivial makes the stream easy
to port.

_next_u64s gives the next outputs as one uint64 array, the same finalizer in
numpy's wrapping uint64 arithmetic, so a run of draws costs a few numpy
passes instead of a Python call each: shuffle takes all its randrange values
from it, and the random graph generators their coins.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Stable per-task seed derived from a master seed and integer labels."""
    s = mix64(seed ^ 0x5851F42D4C957F2D)
    for p in parts:
        s = mix64(s ^ (p & _MASK64))
    return s


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def _next_u64s(self, count: int) -> np.ndarray:
        """The next `count` outputs of next_u64 as a uint64 array; the state
        advances by `count` steps."""
        z = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + self.state
        self.state = (self.state + count * _GOLDEN) & _MASK64
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        return z ^ z >> 31

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the top: item i swaps with randrange(i + 1)."""
        top = np.arange(len(items), 1, -1, dtype=np.uint64)
        picks = (self._next_u64s(len(top)) % top).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]
