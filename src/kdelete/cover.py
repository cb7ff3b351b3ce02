"""Packing edges inside few neighborhoods.

The quantity that drives the deletion bounds downstream is the number of
edges *not* captured by a union of neighborhoods: choose k centers v_1..v_k,
keep disjoint pieces S_i of their neighborhoods, and count
e(G) - e(G[S_1 | ... | S_k]).  Disjointifying never changes the union, so it
never changes the covered edge count either; it only makes the pieces usable
as partition seeds.

Three selectors are provided.  select_cover_random replays the probabilistic
argument directly (best of `trials` uniform draws).  select_cover_greedy is
plain max-coverage: with union U so far and W = N(v) \\ U, center v gains
e(W, U) + e(G[W]), counted exactly in int64 on the edge arrays, with no
per-vertex bit loop.  select_cover_expectation walks through the random draw
one center at a time, always moving to a center whose conditional expected
uncovered count does not exceed the current one; since the initial
expectation is below n^2/(e*k), the finished selection satisfies

    uncovered_edges <= n^2 / (e * k)

on every run, not merely on average.  All expectation comparisons are done in
exact integer arithmetic (scaled by n^j), so the chain of inequalities never
passes through a float.

The expectation never needs a weight per vertex or per edge.  A vertex's
term d(n - d)^j depends only on its degree, and an edge's term (n - u)^j
only on its union size u = |N(x) | N(y)|, so select_cover_expectation counts
vertices and edges per degree and per union size with numpy (int64 counts)
and multiplies the counts by one exact Python-int power per distinct value.

even_parts refines a t-center selection into exactly 2t sets of size at most
n/t without losing covered edges; the recursive partitioners feed those
chunks to their per-piece subproblems.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from typing import Iterator, Optional, Sequence

import numpy as np

from ._rng import SplitMix64, derive_seed
from .bounds import E_LOWER
from .errors import CapabilityError, InvariantViolation
from .graphs import Graph, bits_list, edges_inside, mask_of

_EXACT_U_LIMIT = 10**7
# Adjacency entries per block in _common_neighbor_counts: bounds its scratch
# memory at a few hundred kilobytes whatever the graph.
_BLOCK = 1 << 16

STRATEGIES = ("greedy", "random", "expectation", "best")


@dataclass(frozen=True)
class CoverSelection:
    """Centers plus disjoint neighborhood pieces and the uncovered edge count.

    Invariants: disjoint_sets[i] is a subset of N(centers[i]), the sets are
    pairwise disjoint, and uncovered_edges = e(G) - e(G[union of the sets]).
    """

    centers: tuple[int, ...]
    disjoint_sets: tuple[int, ...]
    uncovered_edges: int

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def union(self) -> int:
        u = 0
        for s in self.disjoint_sets:
            u |= s
        return u

    def validate(self, G: Graph) -> "CoverSelection":
        if len(self.centers) != len(self.disjoint_sets):
            raise InvariantViolation("centers and sets are misaligned")
        taken = 0
        for v, s in zip(self.centers, self.disjoint_sets):
            if s & ~G.adj[v]:
                raise InvariantViolation(f"set for center {v} leaves N({v})")
            if s & taken:
                raise InvariantViolation("cover sets overlap")
            taken |= s
        if G.m - edges_inside(G, taken) != self.uncovered_edges:
            raise InvariantViolation("uncovered_edges is stale")
        return self

    def to_json(self):
        return {
            "centers": list(self.centers),
            "sets": [bits_list(s) for s in self.disjoint_sets],
            "uncovered_edges": self.uncovered_edges,
        }


def disjointify(G: Graph, centers: Sequence[int]) -> list[int]:
    """N(v_i) minus the earlier neighborhoods, in center order."""
    taken = 0
    out = []
    for v in centers:
        piece = G.adj[v] & ~taken
        out.append(piece)
        taken |= piece
    return out


def selection_from_centers(G: Graph, centers: Sequence[int]) -> CoverSelection:
    sets = disjointify(G, centers)
    union = 0
    for s in sets:
        union |= s
    uncovered = G.m - edges_inside(G, union)
    return CoverSelection(tuple(centers), tuple(sets), uncovered)


# What both selectors read off G, built by _edge_arrays; under "best",
# select_cover builds it once and hands it to both.
_EdgeArrays = namedtuple("_EdgeArrays", "degree ex ey union_size neighbors packed")


def _edge_arrays(G: Graph, k: int) -> _EdgeArrays:
    """Degrees, edge ends ex < ey, union sizes |N(x) | N(y)| per edge, N(v) as
    index lists, and the adjacency as little-endian bit rows when some edge
    has a common neighbour (else None)."""
    if k < 1:
        raise ValueError("k must be positive")
    if G.n == 0:
        raise ValueError("cannot select centers in an empty graph")
    n = G.n
    degree = np.array([a.bit_count() for a in G.adj], dtype=np.int64)
    ends = np.fromiter(chain.from_iterable(G.edges), dtype=np.intp, count=2 * G.m)
    ex, ey = ends[0::2], ends[1::2]
    union_size = np.array(
        [(G.adj[x] | G.adj[y]).bit_count() for x, y in G.edges], dtype=np.int64
    )
    # N(v) as index lists, from the edge arrays rather than bits_list, which
    # walks the bits one Python step at a time.
    by_source = np.argsort(np.concatenate((ex, ey)), kind="stable")
    neighbors = [
        nb.tolist()
        for nb in np.split(np.concatenate((ey, ex))[by_source], np.cumsum(degree)[:-1])
    ]
    packed = None
    # An edge lies inside N(v) only when v is a common neighbor of its ends.
    if np.any(degree[ex] + degree[ey] > union_size):
        width = (n + 7) // 8
        packed = np.frombuffer(
            b"".join(a.to_bytes(width, "little") for a in G.adj), dtype=np.uint8
        ).reshape(n, width)
    return _EdgeArrays(degree, ex, ey, union_size, neighbors, packed)


def select_cover_random(
    G: Graph, k: int, trials: int = 1, seed: int = 0
) -> CoverSelection:
    """Best of `trials` independent uniform draws of k centers (repeats allowed)."""
    if k < 1:
        raise ValueError("k must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    if G.n == 0:
        raise ValueError("cannot select centers in an empty graph")
    rng = SplitMix64(derive_seed(seed, 0x11, G.n, G.m, k))
    best: Optional[CoverSelection] = None
    for _ in range(trials):
        centers = tuple(rng.randrange(G.n) for _ in range(k))
        sel = selection_from_centers(G, centers)
        if best is None or sel.uncovered_edges < best.uncovered_edges:
            best = sel
    assert best is not None
    return best


def select_cover_greedy(
    G: Graph, k: int, arrays: Optional[_EdgeArrays] = None
) -> CoverSelection:
    """k centers picked iteratively, each maximizing the newly covered edge
    count; ties break toward the lowest vertex index.

    With union U so far and W = N(v) \\ U, adding v covers the edges incident
    to W that stay inside U | W: gain_v = e(W, U) + e(G[W]).  One bincount
    over the edges gives |N(w) & U| for every w, and a second sums it over the
    w in W; the weights are integers and every sum stays below n^2 < 2^53, so
    the float64 sums are exact.  e(G[W]) is the number of edges outside U with
    v as a common neighbour of both ends (_common_neighbor_counts, one class);
    it is 0 on a triangle-free graph.  argmax takes the first maximum, the
    lowest index, as a strict > scan does.  arrays is _edge_arrays(G, k)
    when the caller already has it.
    """
    arrays = arrays or _edge_arrays(G, k)
    n = G.n
    ex, ey = arrays.ex, arrays.ey
    src, dst = np.concatenate((ex, ey)), np.concatenate((ey, ex))
    in_union = np.zeros(n, dtype=bool)
    centers: list[int] = []
    for _ in range(k):
        into_union = np.bincount(src[in_union[dst]], minlength=n)
        gain = np.bincount(src, weights=(into_union * ~in_union)[dst], minlength=n)
        gain = gain.astype(np.int64)
        fresh = ~(in_union[ex] | in_union[ey])
        if arrays.packed is not None and fresh.any():
            for _, inside in _common_neighbor_counts(
                arrays.packed, ex[fresh], ey[fresh], np.zeros(fresh.sum(), np.intp), 1
            ):
                gain += inside
        centers.append(int(np.argmax(gain)))
        in_union[arrays.neighbors[centers[-1]]] = True
    return selection_from_centers(G, centers)


def _scaled_expectation(
    n: int, degree_counts: dict[int, int], union_counts: dict[int, int], j: int
) -> int:
    """E[uncovered edges after j more uniform picks] * n**j, exactly.

    An endpoint x stays uncovered with probability ((n - d(x)) / n)**j if it
    is uncovered now, and an edge survives if either endpoint does, so by
    inclusion-exclusion the scaled expectation is

        sum_{x uncovered} d(x) * (n - d(x))**j
        - sum_{edges with both endpoints uncovered} (n - u_e)**j

    with u_e = |N(x) | N(y)|.  A vertex enters only through its degree and an
    edge only through u_e, so the sums run over degree_counts (degree ->
    uncovered vertices of that degree) and union_counts (u_e -> edges with
    both endpoints uncovered), one power per distinct value.
    """
    return sum(c * d * (n - d) ** j for d, c in degree_counts.items()) - sum(
        c * (n - u) ** j for u, c in union_counts.items()
    )


def _common_neighbor_counts(
    packed: np.ndarray, xs: np.ndarray, ys: np.ndarray, cls: np.ndarray, classes: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yields (c, counts) for each class c that has edges, where counts[v] is
    the number of edges (xs[i], ys[i]) with cls[i] = c and v adjacent to both
    ends.  packed holds the adjacency rows as little-endian bit rows.  Edges
    go through in blocks of at most _BLOCK adjacency entries, so no
    (edges x n) array is ever built."""
    n = len(packed)
    order = np.argsort(cls, kind="stable")
    xs, ys = xs[order], ys[order]
    bounds = np.searchsorted(cls[order], np.arange(classes + 1)).tolist()
    block = max(1, _BLOCK // n)
    for c in range(classes):
        if bounds[c] == bounds[c + 1]:
            continue
        counts = np.zeros(n, dtype=np.int64)
        for lo in range(bounds[c], bounds[c + 1], block):
            hi = min(lo + block, bounds[c + 1])
            both = packed[xs[lo:hi]] & packed[ys[lo:hi]]
            bits = np.unpackbits(both, axis=1, count=n, bitorder="little")
            counts += bits.sum(axis=0, dtype=np.int64)
        yield c, counts


def select_cover_expectation(
    G: Graph, k: int, arrays: Optional[_EdgeArrays] = None
) -> CoverSelection:
    """Derandomized uniform draw: uncovered_edges <= n^2/(e*k) on every run.

    Maintains the conditional expectation of the final uncovered count and, at
    each step, picks the lowest-indexed center that does not increase it.  The
    average over all n candidate centers equals the current expectation, so
    such a center always exists; at j = 0 the expectation *is* the uncovered
    count, which is therefore bounded by the initial expectation n^2/(e*k).

    An edge is active while both endpoints are uncovered; its weight
    (n - u_e)**j depends only on its union-size class u_e.  Each step counts,
    with numpy, the active edges per class at every vertex and inside every
    neighborhood, then combines those int64 counts with one exact power per
    class and per distinct degree.  The centers are exactly those of the
    per-edge computation, ties included.

    Per step: O(m log m) numpy work on the edge arrays, and O(n + m) big-int
    multiply-adds.  When some edge has a common neighbor, counting the active
    edges inside each N(v) adds O(m n) bit operations on a packed n x n
    adjacency of n^2/8 bytes, taken in blocks of _BLOCK entries, and one
    big-int multiply-add per (class, v) with a nonzero count.  On a
    triangle-free graph nothing lies inside a neighborhood, and that part is
    skipped.  arrays is _edge_arrays(G, k) when the caller already has it.
    """
    arrays = arrays or _edge_arrays(G, k)
    n = G.n
    degree, ex, ey = arrays.degree, arrays.ex, arrays.ey
    degrees = degree.tolist()
    sizes, edge_class = np.unique(arrays.union_size, return_inverse=True)
    sizes = sizes.tolist()
    classes = len(sizes)
    neighbors, packed = arrays.neighbors, arrays.packed

    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    for step in range(k):
        j = k - step - 1
        # Weights at the exponent for *after* this pick.
        weight = [(n - u) ** j for u in sizes]
        active = uncovered[ex] & uncovered[ey]
        active_class = edge_class[active]
        degree_counts = Counter(degree[uncovered].tolist())
        union_counts = {
            sizes[c]: cnt
            for c, cnt in enumerate(np.bincount(active_class, minlength=classes).tolist())
            if cnt
        }
        now = _scaled_expectation(n, degree_counts, union_counts, j)
        # Previous-state expectation, scaled by n**(j+1).
        prev = _scaled_expectation(n, degree_counts, union_counts, j + 1)

        # delta[x]: the change in `now` when x alone becomes covered, that is
        # its active edges' weights minus its own vertex weight; 0 once covered.
        vertex_weight = {d: d * (n - d) ** j for d in degree_counts}
        delta = [0] * n
        for x in np.flatnonzero(uncovered).tolist():
            delta[x] = -vertex_weight[degrees[x]]
        keys, counts = np.unique(
            np.concatenate((ex[active], ey[active])) * classes
            + np.concatenate((active_class, active_class)),
            return_counts=True,
        )
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            x, c = divmod(key, classes)
            delta[x] += cnt * weight[c]
        # pair_bonus[v]: weight of the active edges inside N(v), which the
        # sum over fresh(v) below counts twice.
        pair_bonus = [0] * n
        if packed is not None and len(active_class):
            for c, row in _common_neighbor_counts(
                packed, ex[active], ey[active], active_class, classes
            ):
                hit = np.flatnonzero(row)
                for v, cnt in zip(hit.tolist(), row[hit].tolist()):
                    pair_bonus[v] += cnt * weight[c]

        vals = [now + sum(map(delta.__getitem__, nb)) - pair for nb, pair in
                zip(neighbors, pair_bonus)]
        best_val = min(vals)
        best_v = vals.index(best_val)  # the lowest index, as a strict < scan picks
        if best_val * n > prev:
            raise InvariantViolation(
                "conditional expectation increased; selection logic is broken"
            )
        centers.append(best_v)
        uncovered[neighbors[best_v]] = False

    sel = selection_from_centers(G, centers)
    if Fraction(sel.uncovered_edges) * E_LOWER * k > n * n:
        raise InvariantViolation(
            f"derandomized cover left {sel.uncovered_edges} edges uncovered, "
            f"above n^2/(e*k) with n={n}, k={k}"
        )
    return sel


def select_cover(
    G: Graph, k: int, strategy: str = "best", trials: int = 1, seed: int = 0
) -> CoverSelection:
    """Dispatch by strategy.  "best" takes the expectation-guided selection or
    the max-coverage one, whichever leaves fewer edges uncovered (expectation
    wins ties so the n^2/(e*k) guarantee is always inherited); both read one
    set of edge arrays."""
    if strategy == "greedy":
        return select_cover_greedy(G, k)
    if strategy == "random":
        return select_cover_random(G, k, trials=trials, seed=seed)
    if strategy == "expectation":
        return select_cover_expectation(G, k)
    if strategy == "best":
        arrays = _edge_arrays(G, k)
        exp = select_cover_expectation(G, k, arrays)
        grd = select_cover_greedy(G, k, arrays)
        return grd if grd.uncovered_edges < exp.uncovered_edges else exp
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def exact_u(G: Graph, k: int) -> int:
    """Maximum covered edge count e(G[N(v_1) | ... | N(v_k)]) by brute force."""
    if k < 1:
        raise ValueError("k must be positive")
    if G.n == 0:
        raise ValueError("empty graph")
    if G.n**k > _EXACT_U_LIMIT:
        raise CapabilityError(
            f"exact_u needs n**k <= {_EXACT_U_LIMIT} (got {G.n}**{k})"
        )
    best = 0
    for centers in combinations_with_replacement(range(G.n), k):
        union = 0
        for v in centers:
            union |= G.adj[v]
        got = edges_inside(G, union)
        if got > best:
            best = got
    return best


def even_parts(
    G: Graph, t: int, strategy: str = "best", trials: int = 1, seed: int = 0
) -> CoverSelection:
    """Select t centers, then refine the disjoint pieces into exactly 2t sets
    of size at most floor(n/t) each, preserving the covered edge set.

    Cutting a piece of size s into chunks of size c = floor(n/t) yields
    ceil(s/c) <= (s + c - 1)/c chunks.  The t pieces are disjoint, so their
    sizes sum to at most n and the chunk count stays below
    t + (n - t)/c < 2t, using t*c = t*floor(n/t) > n - t.  The list is padded
    with empty sets (subsets of any neighborhood) up to exactly 2t.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if t > G.n:
        raise ValueError(f"even_parts needs t <= n (got t={t}, n={G.n})")
    base = select_cover(G, t, strategy=strategy, trials=trials, seed=seed)
    chunk = G.n // t
    centers: list[int] = []
    sets: list[int] = []
    for v, piece in zip(base.centers, base.disjoint_sets):
        verts = bits_list(piece)
        for i in range(0, len(verts), chunk):
            centers.append(v)
            sets.append(mask_of(verts[i : i + chunk]))
    if len(sets) > 2 * t:
        raise InvariantViolation(
            f"even_parts produced {len(sets)} > 2t = {2 * t} chunks"
        )
    while len(sets) < 2 * t:
        centers.append(base.centers[0])
        sets.append(0)
    out = CoverSelection(tuple(centers), tuple(sets), base.uncovered_edges)
    if any(s.bit_count() > chunk for s in out.disjoint_sets):
        raise InvariantViolation("even_parts produced an oversized chunk")
    return out
