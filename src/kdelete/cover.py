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
e(W, U) + e(G[W]), counted exactly on the edge arrays, with no per-vertex bit
loop; the first e(G[W]) = e(G[N(v)]) is summed from the common-neighbour
counts per edge, and only the later recounts read the bit rows.
select_cover_expectation walks through the random draw one center at a time,
always moving to a center whose conditional expected uncovered count does not
exceed the current one; since the initial expectation is below n^2/(e*k), the
finished selection satisfies

    uncovered_edges <= n^2 / (e * k)

on every run, not merely on average.  All expectation comparisons are done in
exact integer arithmetic (scaled by n^j), so the chain of inequalities never
passes through a float.

The expectation never needs a weight per vertex or per edge.  A vertex's
term d(n - d)^j depends only on its degree, and an edge's term (n - u)^j
only on its union size u = |N(x) | N(y)|, so each step takes one exact
Python-int power per distinct degree and union size.  Those powers are cut
into 32-bit limbs, and every sum over vertices and edges runs on int64 limb
rows in numpy.  No limb sum comes near 2^63 (select_cover_expectation gives
the bounds), so the result is the exact integer one, ties included, with no
Python step per vertex or edge.

even_parts refines a t-center selection into exactly 2t sets of size at most
n/t without losing covered edges; the recursive partitioners feed those
chunks to their per-piece subproblems.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from ._rng import SplitMix64, derive_seed
from .bounds import E_LOWER
from .errors import CapabilityError, InvariantViolation
from .graphs import (
    _BLOCK, MAX_VERTICES, Graph, bit_rows, bits_list, common_neighbours, edges_inside,
    mask_of, row_bits,
)

_EXACT_U_LIMIT = 10**7
# Shift of each byte of a 32-bit limb (see _inside_sums).
_BYTE_SHIFTS = np.array([0, 8, 16, 24])

STRATEGIES = ("best", "greedy", "expectation", "random")


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
# select_cover builds it once and hands it to both.  common[e] is
# |N(x) & N(y)| for edge e = xy, which the greedy selector's first inside
# counts are summed from.
_EdgeArrays = namedtuple(
    "_EdgeArrays", "degree ex ey union_size common shared src dst edge_of start packed"
)


def _edge_arrays(G: Graph, k: int) -> _EdgeArrays:
    """Degrees; edge ends ex < ey; union sizes u_e = |N(x) | N(y)| and common
    counts c_e = |N(x) & N(y)| per edge; shared, the edges with c_e > 0 (the
    only ones that can lie inside some N(v)); the 2m directed edges src -> dst
    sorted by source, with edge_of[i] the edge that directed edge i runs
    along, so N(v) = dst[start[v]:start[v + 1]]; and the adjacency as bit rows
    (graphs.bit_rows) when some edge is shared (else None).

    u_e = d(x) + d(y) - |N(x) & N(y)|, the common counts read off the bit
    rows by graphs.common_neighbours, so the union sizes cost O(m n / 64)
    word operations in numpy and no Python step per edge.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if G.n == 0:
        raise ValueError("cannot select centers in an empty graph")
    n, m = G.n, G.m
    ex, ey = G.ends[:, 0], G.ends[:, 1]
    degree = np.bincount(G.ends.ravel(), minlength=n)
    order = np.argsort(np.concatenate((ex, ey)), kind="stable")
    src = np.concatenate((ex, ey))[order]
    dst = np.concatenate((ey, ex))[order]
    edge_of = np.concatenate((np.arange(m), np.arange(m)))[order]
    start = np.concatenate(([0], np.cumsum(degree)))
    packed = bit_rows(G.adj, n)
    common = common_neighbours(packed, G.ends)
    # An edge lies inside N(v) only when v is a common neighbour of its ends.
    shared = common > 0
    return _EdgeArrays(
        degree, ex, ey, degree[ex] + degree[ey] - common, common, shared, src, dst,
        edge_of, start, packed if shared.any() else None,
    )


def _inside_sums(
    packed: np.ndarray, xs: np.ndarray, ys: np.ndarray, index: np.ndarray,
    table: np.ndarray,
) -> np.ndarray:
    """(n, L) int64 rows: row v sums table[index[i]] over the edges
    (xs[i], ys[i]) with v adjacent to both ends, and is 0 where there are
    none; table holds limbs below 2**32.

    packed holds the adjacency as bit rows (graphs.bit_rows).  Each block of at
    most _BLOCK adjacency entries is ANDed, unpacked once and summed with one
    float32 matmul against the bytes of its weight rows, so no (edges x n) or
    (edges x L) array is built.  A block has at most 2**16 edges, so its byte
    sums stay below 2**16 * 255 < 2**24, which float32 holds exactly; each is
    added into one (n, 4L) int64 accumulator, whose totals stay below
    m * 255 < 2**34, and whose bytes are shifted in place and put back
    together into limbs below 2**58, so the only other array of that size is
    a block's float32 product.
    """
    n, limbs = len(packed), table.shape[1]
    pieces = (table[:, :, None] >> _BYTE_SHIFTS & 0xFF).reshape(len(table), 4 * limbs)
    weights = pieces.astype(np.float32)
    out = np.zeros((n, 4 * limbs), dtype=np.int64)
    rows = max(1, _BLOCK // n)
    for lo in range(0, len(xs), rows):
        both = packed[xs[lo : lo + rows]] & packed[ys[lo : lo + rows]]
        bits = row_bits(both, n)
        # each product is whole and below 2**24, so the cast to int64 is exact
        np.add(out, bits.T.astype(np.float32) @ weights[index[lo : lo + rows]],
               out=out, casting="unsafe")
    parts = out.reshape(n, limbs, 4)
    parts <<= _BYTE_SHIFTS
    return parts[:, :, 0] + parts[:, :, 1] + parts[:, :, 2] + parts[:, :, 3]


def _edges_in_neighborhoods(arrays: _EdgeArrays) -> np.ndarray:
    """e(G[N(v)]) for every vertex v, the triangles through v.

    An edge wz inside N(v) is counted once in |N(v) & N(w)| and once in
    |N(v) & N(z)|, so e(G[N(v)]) is half the sum of common[e] over the edges e
    at v: one bincount over the directed edges out of v.  Each sum is at most
    d(v) * n < n**2, below 2**28 at n <= MAX_VERTICES and far below the 2**53
    up to which float64 sums of integers are exact.
    """
    return np.bincount(arrays.src, weights=arrays.common[arrays.edge_of],
                       minlength=len(arrays.degree)) // 2


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
    over the directed edges gives |N(w) & U| for every w, and a second sums
    it over the w in W; the weights are integers and every sum stays below
    n^2 < 2^53, so the float64 sums are exact.  e(G[W]) is the number of
    edges with neither end in U and v adjacent to both ends.  With U empty
    it is e(G[N(v)]), which _edges_in_neighborhoods sums from the common
    counts per edge in one more bincount, exact in float64 as its sums stay
    below n^2 (2^28 at MAX_VERTICES); after each pick _inside_sums with a
    unit weight counts only the edges the union reached, or the ones still
    outside it if those are fewer.  It is 0 on a triangle-free graph.  argmax
    takes the first maximum, the lowest index, as a strict > scan does.  Once
    U holds every vertex each gain is 0, so the remaining centers are all
    vertex 0.  arrays is _edge_arrays(G, k) when the caller already has it.
    """
    arrays = arrays or _edge_arrays(G, k)
    n = G.n
    ex, ey, src, dst = arrays.ex, arrays.ey, arrays.src, arrays.dst
    unit = np.ones((1, 1), dtype=np.int64)

    def count_inside(edges: np.ndarray) -> np.ndarray:
        index = np.zeros(np.count_nonzero(edges), dtype=np.intp)
        return _inside_sums(arrays.packed, ex[edges], ey[edges], index, unit)[:, 0]

    # fresh: the edges outside the union that some vertex sees both ends of;
    # inside[v] counts those with both ends in N(v).  When the union reaches
    # some of them, inside is recounted from whichever side is smaller, the
    # edges that left or the edges that stay.
    fresh = arrays.shared.copy()
    inside = _edges_in_neighborhoods(arrays) if fresh.any() else 0
    in_union = np.zeros(n, dtype=bool)
    centers: list[int] = []
    for step in range(k):
        if in_union.all():
            centers += [0] * (k - step)
            break
        into_union = np.bincount(src[in_union[dst]], minlength=n)
        gain = np.bincount(src, weights=(into_union * ~in_union)[dst], minlength=n)
        centers.append(int(np.argmax(gain + inside)))
        in_union[dst[arrays.start[centers[-1]] : arrays.start[centers[-1] + 1]]] = True
        if step + 1 == k or not fresh.any():
            continue
        gone = fresh & (in_union[ex] | in_union[ey])
        if gone.any():
            fresh &= ~gone
            if np.count_nonzero(gone) < np.count_nonzero(fresh):
                inside = inside - count_inside(gone)
            else:
                inside = count_inside(fresh)
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


def _class_counts(values: list[int], classes: np.ndarray) -> dict[int, int]:
    """values[c] -> the number of entries of classes equal to c, for each c
    that occurs."""
    counts = np.bincount(classes, minlength=len(values)).tolist()
    return {v: c for v, c in zip(values, counts) if c}


def _to_limbs(values: list[int], limbs: int) -> np.ndarray:
    """(len(values), limbs) int64 array of the 32-bit limbs of each
    non-negative int, least significant first."""
    raw = b"".join(v.to_bytes(4 * limbs, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(len(values), limbs).astype(np.int64)


def _sum_sorted(
    keys: np.ndarray, table: np.ndarray, rows: np.ndarray, n: int
) -> np.ndarray:
    """(n, L) rows: row v sums table[rows[i]] over the entries i with
    keys[i] = v, for sorted keys below n, and is 0 where there are none.
    Each block of at most _BLOCK gathered entries is summed per key with one
    reduceat and added into its keys' rows; a key split between two blocks is
    added once from each."""
    out = np.zeros((n, table.shape[1]), dtype=table.dtype)
    step = max(1, _BLOCK // table.shape[1])
    for lo in range(0, len(keys), step):
        block = keys[lo : lo + step]
        first = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1])))
        out[block[first]] += np.add.reduceat(table[rows[lo : lo + step]], first, axis=0)
    return out


def _first_minimum(sums: np.ndarray) -> tuple[int, int]:
    """(v, value) for the least v whose int64 row sums[v], read as
    sum_l sums[v, l] * 2**(32 l), is least.

    On a copy, carries are passed up one limb per vectorised pass until every
    limb but the top one lies in [0, 2**32); the top limb keeps the sign.
    Rows then compare as their limbs do from the top down, so the candidates
    are cut to the least top limb and then to the least limb at the highest
    position where the survivors still differ; they stay in ascending order,
    so the first survivor wins.  Only the winning row becomes a Python int.
    """
    r = sums.copy()
    while True:
        carry = r[:, :-1] >> 32
        if not carry.any():
            break
        r[:, :-1] &= 0xFFFFFFFF
        r[:, 1:] += carry
    cand = np.arange(len(r))
    limb = r.shape[1] - 1
    while len(cand) > 1:
        column = r[cand, limb]
        cand = cand[column == column.min()]
        differ = np.flatnonzero((r[cand] != r[cand[0]]).any(axis=0))
        if not len(differ):
            break
        limb = differ[-1]
    first = int(cand[0])
    low = int.from_bytes(r[first, :-1].astype("<u4").tobytes(), "little")
    return first, (int(r[first, -1]) << (32 * (r.shape[1] - 1))) + low


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
    (n - u_e)**j depends only on its union size u_e, and an uncovered
    vertex's weight d(n - d)**j only on its degree.  Picking v changes the
    current expectation `now` to val[v], with

        val[v] - now = sum_{x in N(v), x uncovered} delta[x] - pair[v],
        delta[x] = (weights of the active edges at x) - d(x) (n - d(x))**j,

    where pair[v] is the weight of the active edges inside N(v), which the
    sum counts twice.  A vertex with no uncovered neighbour has val = now.

    Limb layout.  Each step writes its powers, one Python int per distinct
    union size and degree, as L little-endian 32-bit limbs, with L = (bits of
    the largest power) // 32 + 1, and keeps each per-vertex quantity as an
    (n, L) int64 array whose row v, value sum_l row[l] * 2**(32 l), belongs
    to vertex v and is left unnormalised while it is summed:
    - delta: the edge limbs summed over the active directed edges out of v,
      less v's vertex limbs if v is uncovered; 0 for a covered v;
    - val - now: delta summed over the directed edges from v into uncovered
      vertices, less pair[v] from _inside_sums; 0 for a v with no uncovered
      neighbour.  The directed edges are sorted by source once per call and
      masked each step, and _sum_sorted adds them into rows a block at a
      time;
    - _first_minimum then passes the carries up and takes the least row from
      the top limb down, the lowest vertex among equal rows.  Only the
      winning row becomes a Python int, for the check against the previous
      expectation.

    Exactness.  n <= MAX_VERTICES = 10^4 (a larger graph raises
    CapabilityError), so degrees are below 2^14 and m < 2^26.  A limb is
    below 2^32, so a delta entry is below 2^14 * 2^32 = 2^46 in size and a
    sum of fewer than 2^14 of them below 2^60; pair[v] is below
    m * 2^32 < 2^58 per limb (its float32 and float64 sums are bounded in
    _inside_sums).  So every int64 partial sum is below 2^61 < 2^63, and a
    carry pass keeps each entry below 2^62.

    Per step: O((m + n) L) numpy work, in O(L + (m + n) L / _BLOCK) numpy
    calls (a carry runs up at most L limbs, and each top-down cut moves to a
    lower limb), plus one big-int power per distinct degree and union size.
    When some edge has a common neighbour, pair[] adds O(m n) bit operations
    on the packed adjacency in blocks of _BLOCK entries; on a triangle-free
    graph it is skipped, and so is every edge whose weight is 0 (u_e = n at
    j > 0, as on every edge of a complete multipartite graph).  Once every
    vertex is covered each candidate scores 0, so the remaining centers are
    all vertex 0.  The centers are exactly those of the per-edge big-int
    computation, ties included.  arrays is _edge_arrays(G, k) when the
    caller already has it.
    """
    if G.n > MAX_VERTICES:
        raise CapabilityError(
            f"select_cover_expectation needs n <= {MAX_VERTICES} for exact int64 "
            f"limb sums (got n={G.n})"
        )
    a = arrays or _edge_arrays(G, k)
    n = G.n
    sizes, edge_class = np.unique(a.union_size, return_inverse=True)
    degrees, vertex_class = np.unique(a.degree, return_inverse=True)
    sizes, degrees = sizes.tolist(), degrees.tolist()
    arc_class = edge_class[a.edge_of]

    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    for step in range(k):
        if not uncovered.any():
            # Every candidate now scores 0, so the lowest index wins each step.
            centers += [0] * (k - step)
            break
        j = k - step - 1
        active = uncovered[a.ex] & uncovered[a.ey]
        union_counts = _class_counts(sizes, edge_class[active])
        degree_counts = _class_counts(degrees, vertex_class[uncovered])
        now = _scaled_expectation(n, degree_counts, union_counts, j)
        # Previous-state expectation, scaled by n**(j+1).
        prev = _scaled_expectation(n, degree_counts, union_counts, j + 1)

        # Weights at the exponent for *after* this pick, as limb rows.
        edge_weight = [(n - u) ** j for u in sizes]
        vertex_weight = [d * (n - d) ** j for d in degrees]
        limbs = max(edge_weight + vertex_weight).bit_length() // 32 + 1
        weights = _to_limbs(edge_weight + vertex_weight, limbs)
        edge_limbs, vertex_limbs = weights[: len(sizes)], weights[len(sizes) :]
        weighted = edge_limbs.any(axis=1)
        # delta[x]: the change in `now` when uncovered x alone becomes
        # covered, that is its active edges' weights minus its own vertex
        # weight; 0 for a covered x.
        into = np.flatnonzero(uncovered[a.dst])  # arcs v -> x, x uncovered
        live = into[uncovered[a.src[into]] & weighted[arc_class[into]]]
        delta = _sum_sorted(a.src[live], edge_limbs, arc_class[live], n)
        delta[uncovered] -= vertex_limbs[vertex_class[uncovered]]
        # val[v] - now: delta summed over the uncovered x in N(v), less the
        # weight of the active edges inside N(v), which that sum counts
        # twice.  A vertex with no uncovered neighbour keeps a zero row.
        gain = _sum_sorted(a.src[into], delta, a.dst[into], n)
        inside = active & weighted[edge_class] & a.shared
        if inside.any():
            gain -= _inside_sums(
                a.packed, a.ex[inside], a.ey[inside], edge_class[inside], edge_limbs
            )
        best_v, best_gain = _first_minimum(gain)
        best_val = now + best_gain
        if best_val * n > prev:
            raise InvariantViolation(
                "conditional expectation increased; selection logic is broken"
            )
        centers.append(best_v)
        uncovered[a.dst[a.start[best_v] : a.start[best_v + 1]]] = False

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


def even_parts(G: Graph, t: int) -> CoverSelection:
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
    base = select_cover(G, t)
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
