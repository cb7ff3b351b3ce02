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
from .graphs import _BLOCK, Graph, _graph, bit_rows, build_graph, row_bits


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite(sizes: list[int]) -> Graph:
    if any(s < 0 for s in sizes):
        raise ValueError("part sizes must be nonnegative")
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    )


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
    return build_graph(n, edges)


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


# Draws per block of _coin_hits, which bounds its scratch memory.
_COIN_BLOCK = 1 << 20


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Each pair independently with probability p, in lexicographic order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = SplitMix64(derive_seed(seed, 0x41, n))
    hits = _coin_hits(rng, n * (n - 1) // 2, p)
    # pair (u, v) is draw first[u] + v - u - 1, first[u] = u (2n - u - 1) / 2;
    # the hits are in draw order, so the pairs come out canonical
    u = np.arange(n)
    first = u * (2 * n - u - 1) // 2
    u = first.searchsorted(hits, "right") - 1
    return _graph(n, np.column_stack((u, hits - first[u] + u + 1)))


def _coin_hits(rng: SplitMix64, count: int, p: float) -> np.ndarray:
    """int64 indices of the draws among the next `count` of rng for which
    rng.random() < p would hold, taken _COIN_BLOCK outputs at a time from
    rng._next_u64s: (z >> 11) * 2**-53 is random()'s float64, exactly."""
    hits = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, count, _COIN_BLOCK):
        z = rng._next_u64s(min(_COIN_BLOCK, count - lo))
        hits.append(lo + ((z >> 11) * 2.0**-53 < p).nonzero()[0])
    return np.concatenate(hits)


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

    value <= h(G, k) whenever lambda_upper really is an upper bound on
    max(|mu_2|, |mu_min|).  lambda_upper is lambda plus the profile's residual,
    rounded up to 12 decimal digits; the residual bounds the distance of
    every true eigenvalue from its computed partner.  What stays unchecked
    is the floating-point rounding in computing the residual itself.
    """

    k: int
    n: int
    d: int
    lambda_upper: Fraction
    value: Fraction
    residual: float


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
    lambda_upper = _ceil_decimal(profile.lam + profile.residual)
    raw = (Fraction(d * n, k) - lambda_upper * n) / 2
    value = raw if raw > 0 else Fraction(0)
    return LowerBoundCertificate(
        k=k,
        n=n,
        d=d,
        lambda_upper=lambda_upper,
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


def _pair_edges(G: Graph, pairs: list[tuple[int, int]]) -> np.ndarray:
    """e(A, B) of every mask pair as float64: popcount(N(u) & B) summed over
    the members u of A, on bit rows (graphs.bit_rows), with at most
    graphs._BLOCK bytes of A rows unpacked and graphs._BLOCK adjacency words
    gathered at a time."""
    n = G.n
    adj = bit_rows(G.adj, n)
    e = np.zeros(len(pairs))
    rows, chunk = max(1, _BLOCK // n), max(1, _BLOCK // adj.shape[1])
    for lo in range(0, len(pairs), rows):
        block = pairs[lo : lo + rows]
        inside = row_bits(bit_rows([am for am, _ in block], n), n)
        owner, member = np.divmod(np.flatnonzero(inside), n)
        B = bit_rows([bm for _, bm in block], n)
        for i in range(0, len(owner), chunk):
            o = owner[i : i + chunk]
            both = adj[member[i : i + chunk]] & B[o]
            hits = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
            e[lo : lo + len(block)] += np.bincount(o, hits, len(block))
    return e


def mixing_check(
    G: Graph,
    profile: Optional[SpectralProfile] = None,
    samples: int = 200,
    seed: int = 0,
) -> MixingReport:
    """The first smallest slack over the probes: every pair of nonempty sets
    when n <= 6, else the structured pairs (V x V, evens x odds, halves, and
    per vertex {v}x{v}, {v}xV, N(v)x(V - N(v))) then `samples` seeded random
    pairs, empty sets dropped.  Every e(A, B), a*b and d*a*b is an integer
    below 2**53, so float64 holds it exactly, and each slack is the IEEE
    expression a per-pair loop over Python ints evaluates."""
    if profile is None:
        profile = second_eigenvalue(G)
    if profile.d is None:
        raise PreconditionError("mixing checks need a regular graph", witness=None)
    n, d, lam, full = G.n, profile.d, profile.lam, G.full_mask
    exhaustive = n <= 6
    if exhaustive:
        pairs = [(am, bm) for am in range(1, full + 1) for bm in range(1, full + 1)]
    else:
        evens = sum(1 << v for v in range(0, n, 2))
        half = sum(1 << v for v in range(n // 2))
        pairs = [(full, full), (evens, full ^ evens), (half, full ^ half)]
        for v in range(n):
            pairs += [(1 << v, 1 << v), (1 << v, full), (G.adj[v], full ^ G.adj[v])]
        rng = SplitMix64(derive_seed(seed, 0x51, G.n, G.m))
        for _ in range(samples):
            am = bm = 0
            for base in range(0, n, 64):
                am |= rng.next_u64() << base
                bm |= rng.next_u64() << base
            pairs.append((am & full, bm & full))
        pairs = [(am, bm) for am, bm in pairs if am and bm]
    e = _pair_edges(G, pairs)
    a, b = np.array([(am.bit_count(), bm.bit_count()) for am, bm in pairs], float).T
    slack = lam * np.sqrt(a * b) - np.abs(e - d * a * b / n)
    best = int(np.argmin(slack))
    return MixingReport(float(slack[best]), pairs[best], len(pairs), exhaustive)
