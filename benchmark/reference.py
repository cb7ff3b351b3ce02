"""Reference checks for the benchmark, written apart from kdelete.

Nothing here imports kdelete.  Hypotheses are checked with adjacency-matrix
products, brute-force h(G, k) is enumerated with numpy, ceilings are
recomputed in exact rationals, and every report is recounted from its
labels.  A failed check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

import numpy as np

# A rational strictly below e: a partial sum of sum 1/i!.  Dividing by it
# enlarges an n^2/(e k) style ceiling, so a true inequality never fails.
E_BELOW = sum(Fraction(1, factorial(i)) for i in range(21))

BRUTE_K2_MAX_N = 23
BRUTE_K3_MAX_N = 13
BRUTE_CHUNK = 1 << 18  # labelings scored per numpy batch
_EXACT_FLOAT = 2**53


class CheckFailed(AssertionError):
    """An output or an input hypothesis failed a reference check."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- hypotheses -----------------------------------------------------------


def adjacency(n: int, edges) -> np.ndarray:
    A = np.zeros((n, n))
    if edges:
        idx = np.asarray(edges)
        A[idx[:, 0], idx[:, 1]] = 1.0
        A[idx[:, 1], idx[:, 0]] = 1.0
    return A


def has_odd_cycle_up_to(A: np.ndarray, length: int) -> bool:
    """True iff some odd cycle has at most `length` vertices.

    A closed walk of odd length L contains an odd cycle of length <= L, so
    it is enough that tr(A^L) = 0 for every odd L <= length.  All terms are
    nonnegative, so a float zero is an exact zero.
    """
    A2 = A @ A
    P = A
    for _ in range(3, length + 1, 2):
        P = P @ A2
        if float(np.trace(P)) != 0.0:
            return True
    return False


def count_five_cycles(A: np.ndarray) -> int:
    """Number of 5-cycles: (tr A^5 - 5 tr A^3 - 5 sum_i (d_i - 2)(A^3)_ii)/10."""
    A2 = A @ A
    A3 = A2 @ A
    tr5 = float(np.sum(A2 * A3))
    need(tr5 < _EXACT_FLOAT, "closed 5-walk count too large for exact floats")
    diag3 = np.diag(A3)
    deg = A.sum(axis=1)
    total = tr5 - 5.0 * float(diag3.sum()) - 5.0 * float(np.dot(deg - 2.0, diag3))
    count, rest = divmod(int(round(total)), 10)
    need(rest == 0 and count >= 0, "5-cycle count is not a whole number")
    return count


def has_k4(n: int, edges) -> bool:
    """Look for a triangle inside the later neighbours of each vertex."""
    A = adjacency(n, edges).astype(np.float32)
    for u in range(n):
        later = np.flatnonzero(A[u, u + 1:]) + u + 1
        if len(later) < 3:
            continue
        B = A[np.ix_(later, later)]
        if float(np.sum((B @ B) * B)) != 0.0:
            return True
    return False


def check_hypothesis(name: str, n: int, edges) -> None:
    """Raise CheckFailed unless the graph has the named property."""
    if name == "K3-free":
        need(not has_odd_cycle_up_to(adjacency(n, edges), 3), "graph has a triangle")
    elif name == "K4-free":
        need(not has_k4(n, edges), "graph has a K4")
    elif name == "C5-free":
        need(count_five_cycles(adjacency(n, edges)) == 0, "graph has a 5-cycle")
    elif name.startswith("odd-girth>"):
        bound = int(name.split(">")[1])
        need(not has_odd_cycle_up_to(adjacency(n, edges), bound),
             f"graph has an odd cycle of length <= {bound}")
    elif name == "regular":
        need(len(set(np.bincount(np.asarray(edges).ravel(), minlength=n))) == 1,
             "graph is not regular")
    else:
        raise ValueError(f"unknown hypothesis {name!r}")


# --- exact h by enumeration ------------------------------------------------


def brute_h(n: int, edges, k: int) -> int:
    """min over all k-labelings (vertex 0 pinned) of the internal edge count."""
    need(k in (2, 3), "brute force covers k = 2 and k = 3")
    need(n <= (BRUTE_K2_MAX_N if k == 2 else BRUTE_K3_MAX_N), "instance too large to enumerate")
    if n <= 1 or not edges:
        return 0
    total = k ** (n - 1)
    best = len(edges)
    powers = [k**i for i in range(n - 1)]
    for start in range(0, total, BRUTE_CHUNK):
        code = np.arange(start, min(start + BRUTE_CHUNK, total), dtype=np.int64)
        labels = [np.zeros(len(code), dtype=np.int8)]
        labels += [((code // p) % k).astype(np.int8) for p in powers]
        internal = np.zeros(len(code), dtype=np.int16)
        for u, v in edges:
            internal += labels[u] == labels[v]
        best = min(best, int(internal.min()))
    return best


# --- exact ceilings ---------------------------------------------------------


def _ceil_mul_sqrt(c: int, x: int) -> int:
    """ceil(c * sqrt(x)) for nonnegative integers."""
    t = isqrt(c * c * x)
    return t if t * t == c * c * x else t + 1


def _iroot(x: int, d: int) -> int:
    r = int(round(x ** (1.0 / d))) if x else 0
    while r > 0 and r**d > x:
        r -= 1
    while (r + 1) ** d <= x:
        r += 1
    return r


def within_ceiling(method: str, deleted: int, n: int, k: int, r) -> bool:
    """deleted <= the method's proved ceiling, decided in exact arithmetic."""
    if method == "trianglefree" or (method == "clique" and r == 3):
        return deleted * E_BELOW * k * k <= n * n
    if method == "clique":
        # deleted <= c / k^((r-1)/(r-2))  <=>  deleted^(r-2) k^(r-1) <= c^(r-2)
        c = Fraction(5 * 4 ** (r - 3), 3) * n * n
        return Fraction(deleted) ** (r - 2) * k ** (r - 1) <= c ** (r - 2)
    if method == "oddgirth":
        return deleted * k ** (r + 1) <= 4 * (12 * r) ** r * n * n
    if method == "oddcycle":
        main = Fraction(4 * (12 * r) ** r * n * n, k ** (r + 1))
        return deleted <= main + _ceil_mul_sqrt(100 * r**4, n**3)
    if method == "wheel":
        j = _iroot(k // 2, r + 1)
        s, t = j, j**r
        quad = 16 * (12 * r) ** r * Fraction(n * n, t * t * s ** (r + 1))
        scrub = Fraction(_ceil_mul_sqrt(100 * r**4, 8 * n**3 * t), t * t)
        return deleted <= 2 * Fraction(n * n) / (E_BELOW * s * t * t) + t * (quad + scrub)
    raise ValueError(f"no ceiling for method {method!r}")


# --- report checks ----------------------------------------------------------


def _labels(labels, n: int, k: int) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    need(lab.shape == (n,), f"{len(labels)} labels for {n} vertices")
    need(n == 0 or (lab.min() >= 0 and lab.max() < k), "label outside 0..k-1")
    return lab


def internal_edges(edges, lab: np.ndarray) -> int:
    if not edges:
        return 0
    e = np.asarray(edges)
    return int(np.count_nonzero(lab[e[:, 0]] == lab[e[:, 1]]))


def check_partition(out: dict, n: int, edges, method: str, k: int, r) -> int:
    """Recount a partition report; return its deletion count."""
    part = out["partition"]
    need(part["k"] == k, "partition has the wrong number of blocks")
    lab = _labels(part["labels"], n, k)
    inside = internal_edges(edges, lab)
    deleted = out["deleted"]
    if method == "oddcycle":
        removed = [tuple(e) for e in out["meta"]["scrub"]["removed_edges"]]
        edge_set = set(edges)
        need(len(set(removed)) == len(removed), "an edge was scrubbed twice")
        need(all(e in edge_set for e in removed), "a scrubbed edge is not an edge of G")
        kept = sorted(edge_set - set(removed))
        need(deleted == len(removed) + internal_edges(kept, lab),
             "deleted != scrubbed edges + internal edges after scrubbing")
    elif method == "wheel":
        need(deleted >= inside, "deleted undercounts the internal edges")
    else:
        need(deleted == inside, f"deleted {deleted} != recounted internal edges {inside}")
    need(out["guarantee_holds"] is True, "report says its guarantee fails")
    need(within_ceiling(method, deleted, n, k, r), f"deleted {deleted} is above the proved ceiling")
    return deleted


def check_cut(out: dict, n: int, edges, l: int) -> int:
    """Recount a cut report and its m/2 floor; return the crossing count."""
    lab = _labels(out["partition"]["labels"], n, l)
    crossing = len(edges) - internal_edges(edges, lab)
    need(out["crossing"] == crossing, f"crossing {out['crossing']} != recounted {crossing}")
    need(2 * crossing >= len(edges), "cut is below m/2")
    return crossing


def check_cover(out: dict, n: int, edges, k: int) -> int:
    """Cover pieces are disjoint subsets of their centers' neighbourhoods;
    the uncovered count is recounted and kept under n^2/(e k)."""
    centers, sets = out["centers"], out["sets"]
    need(len(centers) == k and len(sets) == k, "cover needs k centers and k sets")
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    union: set = set()
    for c, piece in zip(centers, sets):
        need(0 <= c < n, "center out of range")
        need(set(piece) <= nbrs[c], f"a piece leaves N({c})")
        need(not union & set(piece), "cover pieces overlap")
        union |= set(piece)
    uncovered = sum(1 for u, v in edges if not (u in union and v in union))
    need(out["uncovered_edges"] == uncovered, "uncovered_edges does not match a recount")
    need(uncovered * E_BELOW * k <= n * n, "uncovered edges above n^2/(e k)")
    return uncovered


def second_eigenvalue(n: int, edges) -> float:
    """max(|mu_2|, |mu_min|) of the adjacency spectrum, from eigvalsh."""
    mu = np.linalg.eigvalsh(adjacency(n, edges))
    return float(max(abs(mu[-2]), abs(mu[0])))


def check_spectral(out: dict, n: int, edges, k: int, lam: float) -> Fraction:
    """The certificate's lambda bounds the true one and its value is
    (d n / k - lambda n) / 2 clamped at 0; return that value."""
    cert = out["certificate"]
    degs = np.bincount(np.asarray(edges).ravel(), minlength=n)
    need(cert["k"] == k and cert["n"] == n and cert["d"] == int(degs[0]),
         "certificate describes another graph")
    lam_upper = Fraction(cert["lambda_upper"])
    need(lam_upper >= Fraction(lam) - Fraction(1, 10**9),
         f"lambda_upper {float(lam_upper)} understates lambda {lam}")
    raw = (Fraction(cert["d"] * n, k) - lam_upper * n) / 2
    value = Fraction(cert["value"])
    need(value == max(raw, Fraction(0)), "certificate value does not follow from lambda_upper")
    return value
