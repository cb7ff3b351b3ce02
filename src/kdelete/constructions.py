"""Named graphs, seeded random graphs, blow-ups, and spectral certificates.

The spectral side takes lambda = max(|mu_2|, |mu_min|) of the adjacency
spectrum from one `numpy.linalg.eigh` call, regular or not, with no start
vector and no iteration.  Its residual is Kahan's inclusion radius for the
computed eigenpairs, which bounds the error of every eigenvalue at once
(W. Kahan, "Inclusion theorems for clusters of eigenvalues of Hermitian
matrices", 1967).

A lower-bound certificate for deletion counts follows from the mixing
property: every k-partition has sum of block sizes squared at least n^2/k,
so internal edges >= (d*n/k - lambda*n)/2.  The certificate rounds lambda
*up* (plus the reported residual) to 12 decimal digits and carries the value
as an exact rational from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from ._rng import SplitMix64, derive_seed
from .errors import CapabilityError, InvariantViolation, PreconditionError
from .graphs import Graph, build_graph, edges_between
from .serialize import fraction_str


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite(sizes: list[int]) -> Graph:
    if any(s < 0 for s in sizes):
        raise ValueError("part sizes must be nonnegative")
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    edges = []
    for a, (lo1, hi1) in enumerate(bounds):
        for lo2, hi2 in bounds[a + 1 :]:
            edges.extend((u, v) for u in range(lo1, hi1) for v in range(lo2, hi2))
    return build_graph(start, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite([a, b])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def circulant(n: int, steps: list[int]) -> Graph:
    """Vertices mod n, i ~ i+s for each step; 2|steps|-regular (one less
    per step equal to n/2)."""
    edges = []
    for s in steps:
        if not 1 <= s <= n // 2:
            raise ValueError("steps must lie in 1..n//2")
        edges.extend((i, (i + s) % n) for i in range(n))
    return build_graph(n, [(u, v) for u, v in edges if u != v])


def hypercube(d: int) -> Graph:
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return build_graph(n, edges)


def disjoint_union(graphs: list[Graph]) -> Graph:
    edges = []
    offset = 0
    for H in graphs:
        edges.extend((u + offset, v + offset) for u, v in H.edges)
        offset += H.n
    return build_graph(offset, edges)


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Each pair independently with probability p, in lexicographic order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = SplitMix64(derive_seed(seed, 0x41, n))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def blow_up(G: Graph, t: int) -> Graph:
    """Replace each vertex by t copies and each edge by a complete bipartite
    bundle; vertex (v, a) becomes v*t + a.  Odd girth is preserved and the
    minimum-deletion count for any k scales by exactly t**2.
    """
    if t < 1:
        raise ValueError("t must be positive")
    edges = []
    for u, v in G.edges:
        for a in range(t):
            for b in range(t):
                edges.append((u * t + a, v * t + b))
    return build_graph(G.n * t, edges)


GENERATORS: dict[str, Callable[..., Graph]] = {
    "cycle": cycle,
    "complete": complete,
    "multipartite": complete_multipartite,
    "petersen": petersen,
    "random": random_graph,
}


# ---------------------------------------------------------------------------
# spectral machinery

_SPECTRAL_LIMIT = 2_000


@dataclass(frozen=True)
class SpectralProfile:
    """lambda = max(|mu_2|, |mu_min|) from one eigendecomposition of A.

    d is the common degree, or None when the graph is not regular (lambda
    then still describes the adjacency spectrum, but the certificate and
    mixing checks refuse to run).  residual is Kahan's inclusion radius
    ||A X - X diag(mu)||_F / sqrt(1 - ||X^T X - I||_F) of the computed
    eigenpairs (mu, X): every eigenvalue of A lies within it of its sorted
    partner in mu, so lambda + residual bounds the true lambda.
    """

    n: int
    d: Optional[int]
    lam: float
    residual: float

    def to_json(self):
        return {
            "n": self.n,
            "d": self.d,
            "lambda": self.lam,
            "residual": self.residual,
        }


def second_eigenvalue(G: Graph) -> SpectralProfile:
    """Profile of the adjacency spectrum from one dense eigh.

    Refuses more than _SPECTRAL_LIMIT vertices before building the n x n
    matrix: at MAX_VERTICES the eigh would take minutes and gigabytes.
    """
    n = G.n
    if n > _SPECTRAL_LIMIT:
        raise CapabilityError(
            f"the dense eigendecomposition is limited to {_SPECTRAL_LIMIT} "
            f"vertices (got {n})"
        )
    degs = [G.degree(v) for v in range(n)]
    regular = n > 0 and len(set(degs)) == 1
    d = degs[0] if regular else None
    if n <= 1:
        return SpectralProfile(n, 0 if n == 1 else None, 0.0, 0.0)
    A = np.zeros((n, n))
    lo, hi = G.ends.T
    A[lo, hi] = A[hi, lo] = 1.0
    mu, X = np.linalg.eigh(A)
    drift = float(np.linalg.norm(X.T @ X - np.eye(n)))
    if drift >= 1.0:
        raise InvariantViolation("eigenvectors too far from orthonormal to bound")
    residual = float(np.linalg.norm(A @ X - X * mu)) / math.sqrt(1.0 - drift)
    lam = max(abs(float(mu[-2])), abs(float(mu[0])))
    return SpectralProfile(n, d, lam, residual)


def _ceil_decimal(x: float) -> Fraction:
    scale = 10**12
    return Fraction(math.ceil(Fraction(x) * scale), scale)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Exact rational lower bound on the k-partition deletion count.

    value <= h(G, k) whenever lam_upper really is an upper bound on
    max(|mu_2|, |mu_min|).  lam_upper is lambda plus the profile's residual,
    rounded up to 12 decimal digits; the residual bounds the distance of
    every true eigenvalue from its computed partner.  What stays unchecked
    is the floating-point rounding in computing the residual itself.
    """

    k: int
    n: int
    d: int
    lam_upper: Fraction
    value: Fraction
    residual: float

    def to_json(self):
        return {
            "k": self.k,
            "n": self.n,
            "d": self.d,
            "lambda_upper": fraction_str(self.lam_upper),
            "value": fraction_str(self.value),
            "residual": self.residual,
        }


def spectral_lower_bound(
    G: Graph, k: int, profile: Optional[SpectralProfile] = None
) -> LowerBoundCertificate:
    """Deletion lower bound (d*n/k - lambda*n)/2, clamped at zero.

    Every k-partition has sum |V_i|^2 >= n^2/k, and the mixing property
    forces e(V_i) >= (d/n*|V_i|^2 - lambda*|V_i|)/2 per block; summing and
    replacing lambda by its rounded-up estimate keeps the result a true
    lower bound in exact arithmetic.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if profile is None:
        profile = second_eigenvalue(G)
    if profile.d is None:
        raise PreconditionError(
            "spectral certificates need a regular graph", witness=None
        )
    d, n = profile.d, G.n
    lam_upper = _ceil_decimal(profile.lam + profile.residual)
    raw = (Fraction(d * n, k) - lam_upper * n) / 2
    value = raw if raw > 0 else Fraction(0)
    return LowerBoundCertificate(
        k=k,
        n=n,
        d=d,
        lam_upper=lam_upper,
        value=value,
        residual=profile.residual,
    )


@dataclass(frozen=True)
class MixingReport:
    """Worst observed slack of lambda*sqrt(|A||B|) - |e(A,B) - d|A||B|/n|.

    Nonnegative slack on every pair is what the certificate's lambda
    promises; sampling (or full enumeration for n <= 6) probes it.
    """

    min_slack: float
    witness: tuple[int, int]
    pairs_checked: int
    exhaustive: bool

    def to_json(self):
        return {
            "min_slack": self.min_slack,
            "witness": list(self.witness),
            "pairs_checked": self.pairs_checked,
            "exhaustive": self.exhaustive,
        }


def mixing_check(
    G: Graph,
    profile: Optional[SpectralProfile] = None,
    samples: int = 200,
    seed: int = 0,
) -> MixingReport:
    if profile is None:
        profile = second_eigenvalue(G)
    if profile.d is None:
        raise PreconditionError("mixing checks need a regular graph", witness=None)
    n, d, lam = G.n, profile.d, profile.lam
    full = G.full_mask

    def slack(am: int, bm: int) -> float:
        a = am.bit_count()
        b = bm.bit_count()
        e = edges_between(G, am, bm)
        return lam * math.sqrt(a * b) - abs(e - d * a * b / n)

    best = math.inf
    witness = (0, 0)
    checked = 0

    def probe(am: int, bm: int):
        nonlocal best, witness, checked
        if am == 0 or bm == 0:
            return
        s = slack(am, bm)
        checked += 1
        if s < best:
            best = s
            witness = (am, bm)

    if n <= 6:
        for am in range(1, 1 << n):
            for bm in range(1, 1 << n):
                probe(am, bm)
        return MixingReport(best, witness, checked, True)

    probe(full, full)
    evens = sum(1 << v for v in range(0, n, 2))
    probe(evens, full ^ evens)
    half = sum(1 << v for v in range(n // 2))
    probe(half, full ^ half)
    for v in range(n):
        probe(1 << v, 1 << v)
        probe(1 << v, full)
        probe(G.adj[v], full ^ G.adj[v])
    rng = SplitMix64(derive_seed(seed, 0x51, G.n, G.m))
    for _ in range(samples):
        am = rng.next_u64() & full
        bm = rng.next_u64() & full
        if n > 64:
            for base in range(64, n, 64):
                am |= (rng.next_u64() & ((1 << min(64, n - base)) - 1)) << base
                bm |= (rng.next_u64() & ((1 << min(64, n - base)) - 1)) << base
        probe(am, bm)
    return MixingReport(best, witness, checked, False)
