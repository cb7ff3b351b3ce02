"""Max-k-cut: exact small cases, guaranteed local search, coarsening, and
the dense-regime driver built on the odd-cycle-free partitioner.

Everything returns a CutResult whose crossing count is recomputed from the
partition, so a reported guarantee can always be re-checked.  The working
guarantees on any graph:

  * local_search_cut:    crossing * k >= m * (k - 1)
  * coarsen_cut:         crossing * C(k,2) >= (C(k,2) - sum C(s_i,2)) * fine
  * surplus_compose:     same * l <= between (the edges joining two pieces,
    and those of them whose ends share a label), which is the share
    (crossing - sum inner) * l >= (l - 1) * (m - sum m_i), as
    m - sum m_i = between and crossing - sum inner = between - same
  * maxcut_dense_driver: 2 * crossing >= m always, and in the dense regime
    (k-partitioning deletes at most m/(2k) edges) the two-cut reaches
    m/2 + m/(4(k-1)), beating the plain local-search floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice, permutations
from math import comb, factorial

import numpy as np

from ._rng import SplitMix64, derive_seed
from .bounds import iroot
from .errors import CapabilityError, InvariantViolation
from .graphs import Graph, label_masks, mask_of
from .oddgirth import partition_odd_cycle_free
from .oracle import min_internal_partition
from .partition import VertexPartition, lift_pieces, polish

_EXACT_CUT_LIMIT = 5 * 10**6
_GROUPING_ENUM_LIMIT = 10**5
_COMPOSE_LABEL_LIMIT = 8


@dataclass(frozen=True)
class CutResult:
    """A k-partition viewed as a cut: crossing edges are the objective."""

    partition: VertexPartition
    crossing: int
    method: str
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.partition.k

    def validate(self, G: Graph) -> "CutResult":
        got = self.partition.crossing_count(G)
        if got != self.crossing:
            raise InvariantViolation(
                f"stored crossing {self.crossing} != recomputed {got}"
            )
        return self

    def to_json(self, G: Graph):
        return {
            "crossing": self.crossing,
            "k": self.k,
            "method": self.method,
            "partition": self.partition.to_json(G),
            "meta": self.meta,
        }


def max_k_cut_exact(G: Graph, k: int) -> CutResult:
    """Provably maximum k-cut: min_internal_partition's optimal partition.

    Its search pins the first label and skips the vertices of degree 0,
    which cut nothing and stay in block 0 at every k, k >= n included, so
    it has at most k**(n-1) leaves for n the vertices of positive degree;
    inputs where that bound passes 5e6 are refused up front.
    """
    if k < 1:
        raise ValueError("k must be positive")
    core_n = sum(1 for a in G.adj if a)
    if k ** (core_n - 1) > _EXACT_CUT_LIMIT:
        raise CapabilityError(
            f"exact max-k-cut needs k**(n-1) <= {_EXACT_CUT_LIMIT}, "
            "n counting the vertices of positive degree"
        )
    internal, part = min_internal_partition(G, k)
    return CutResult(
        partition=part,
        crossing=G.m - internal,
        method="exact",
        meta={"internal": internal},
    )


def local_search_cut(
    G: Graph, k: int, starts: int = 3, seed: int = 0
) -> CutResult:
    """Single-vertex moves to a local optimum, best of several seeded starts.

    At a local optimum every vertex has at most deg(v)/k neighbors in its
    own block, so internal <= m/k and crossing * k >= m * (k - 1); that
    floor is checked exactly on the returned cut.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if starts < 1:
        raise ValueError("starts must be positive")
    n = G.n
    rng = SplitMix64(derive_seed(seed, 0x61, n, G.m, k))
    part = best_internal = None
    for _ in range(starts):
        labels = [v % k for v in range(n)]
        rng.shuffle(labels)
        moved, internal = polish(G, labels, k)
        if best_internal is None or internal < best_internal:
            part, best_internal = moved, internal
    crossing = G.m - best_internal
    if crossing * k < G.m * (k - 1):
        raise InvariantViolation("local search ended below the (1-1/k) floor")
    return CutResult(
        partition=part,
        crossing=crossing,
        method="local-search",
        meta={"starts": starts, "internal": best_internal},
    )


def balanced_group_sizes(k: int, l: int) -> tuple[int, ...]:
    """Sizes of l near-equal groups of k labels, descending."""
    q, rem = divmod(k, l)
    return tuple([q + 1] * rem + [q] * (l - rem))


def d_l_complete(l: int, k: int) -> Fraction:
    """Best l-cut density of the complete graph on k vertices.

    Grouping the k vertices into l parts leaves sum C(s_i, 2) edges inside,
    minimized by near-equal sizes (the sum is convex in each s_i), so the
    density is 1 - sum C(s_i,2)/C(k,2).  For even k and l = 2 this is the
    familiar k/(2(k-1)).
    """
    if k < 2:
        raise ValueError("needs k >= 2 (no edges otherwise)")
    if l < 1:
        raise ValueError("l must be positive")
    if l >= k:
        return Fraction(1)
    inside = sum(comb(s, 2) for s in balanced_group_sizes(k, l))
    return Fraction(comb(k, 2) - inside, comb(k, 2))


def _grouping_count(k: int, sizes: tuple[int, ...]) -> int:
    """Number of ways to split k labels into unlabeled groups of these sizes."""
    total = factorial(k)
    for s in sizes:
        total //= factorial(s)
    mult: dict[int, int] = {}
    for s in sizes:
        mult[s] = mult.get(s, 0) + 1
    for c in mult.values():
        total //= factorial(c)
    return total


def _pair_weights(G: Graph, fine: VertexPartition) -> np.ndarray:
    """(k, k) int64 w: w[a][b] edges between fine blocks a != b, 0 on the
    diagonal.  Every sum of its entries is at most 2m, far inside int64."""
    k = fine.k
    assign = fine.labels()
    a, b = assign[G.ends[:, 0]], assign[G.ends[:, 1]]
    w = np.bincount(a * k + b, minlength=k * k).reshape(k, k)
    w += w.T
    np.fill_diagonal(w, 0)  # the blocks' own edges join no two labels
    return w


def _inside_weight(w: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """int64 weight inside each row of groups, an (N, s) array of labels:
    one gather per position i of the weights to the positions after it."""
    total = np.zeros(len(groups), dtype=np.int64)
    for i in range(groups.shape[1] - 1):
        total += w[groups[:, i, None], groups[:, i + 1 :]].sum(axis=1)
    return total


def _grouping_internal(w: np.ndarray, groups: list[list[int]]) -> int:
    return sum(int(_inside_weight(w, np.array([g]))[0]) for g in groups)


def _ce_grouping(w: np.ndarray, sizes: tuple[int, ...]) -> list[list[int]]:
    """Conditional-expectation greedy: place each label in the group that
    minimizes the expected internal weight of a random equitable completion.

    With R labels left after the current one, a group's score is the
    expected weight that u and those labels add, times max(R,1) *
    max(R-1,1): the factor is the same for every group and makes each score
    an integer, so the comparison stays exact and the first minimal group
    wins.  The final grouping is therefore at most the initial expectation,
    i.e. internal <= sum C(s_i,2)/C(k,2) * W.

    Putting u in g takes one slot from g alone, so the scaled expectation
    is a sum over all groups h, the same for every choice, plus the terms
    of g: A B wg[u][g] + B ((cap[g]-1) row_u - s[g]) - 2 pairs (cap[g]-1)
    with A = max(R,1), B = max(R-1,1).  The key is those terms only, so the
    order of the groups, and the first minimal one, are unchanged.

    w is the (k, k) int64 weight array.  The weights to each group, wg, are
    an (l, k) int64 array that takes one numpy row update per label; the
    keys are Python ints, so they are exact whatever their size.
    """
    k = len(w)
    l = len(sizes)
    groups: list[list[int]] = [[] for _ in range(l)]
    cap = list(sizes)
    # wg[h][v]: weight from v to the labels placed in group h; s[h]: its sum
    # over the labels left; pairs[u]: the weight among the labels after u.
    upper = np.triu(w, 1)
    rows = upper.sum(axis=1)
    pairs = (rows.sum() - rows.cumsum()).tolist()
    rows = rows.tolist()
    wg = np.zeros((l, k), dtype=np.int64)
    s = [0] * l
    for u in range(k):
        R = k - 1 - u
        A, B = max(R, 1), max(R - 1, 1)
        wgu = wg[:, u].tolist()
        s = [t - x for t, x in zip(s, wgu)]
        c = B * rows[u] - 2 * pairs[u]
        best = low = None
        for g, (x, t, room) in enumerate(zip(wgu, s, cap)):
            if room:
                key = A * B * x - B * t + (room - 1) * c
                if best is None or key < low:
                    best, low = g, key
        groups[best].append(u)
        cap[best] -= 1
        wg[best, u + 1 :] += w[u, u + 1 :]
        s[best] += rows[u]
    return groups


def coarsen_cut(G: Graph, fine: VertexPartition, l: int) -> CutResult:
    """Merge the k blocks of a fine cut into l groups, keeping at least a
    d_l(K_k) fraction of the fine crossing weight.

    A uniformly random equitable grouping keeps each crossing edge with
    probability 1 - sum C(s_i,2)/C(k,2) = d_l(K_k), and the conditional-
    expectation greedy never falls below that average; small instances are
    additionally scored exhaustively, and the first best grouping replaces
    the greedy's only when it is strictly lighter, so the guarantee is
    asserted on the result.  The grouped internal weight is the fine
    crossing edges that the groups put inside, fine_crossing - crossing.
    """
    if l < 1:
        raise ValueError("l must be positive")
    k = fine.k
    fine_crossing = fine.crossing_count(G)
    if l >= k:
        return CutResult(
            partition=fine.padded(l) if l > k else fine,
            crossing=fine_crossing,
            method="coarsen-identity",
            meta={"l": l, "fine_crossing": fine_crossing},
        )
    sizes = balanced_group_sizes(k, l)
    w = _pair_weights(G, fine)
    groups, method = _ce_grouping(w, sizes), "coarsen-ce"
    if _grouping_count(k, sizes) <= _GROUPING_ENUM_LIMIT:
        scores = _grouping_scores(w, np.arange(k)[None, :], sizes)[0]
        first = int(scores.argmin())
        if scores[first] < _grouping_internal(w, groups):
            groups, method = _nth_grouping(k, sizes, first), "coarsen-exhaustive"
    # the fine blocks are disjoint, so a group's sum is their union
    part = VertexPartition(G.n, tuple(sum(fine.blocks[i] for i in g) for g in groups))
    crossing = part.crossing_count(G)
    if crossing < d_l_complete(l, k) * fine_crossing:
        raise InvariantViolation("coarsening fell below the d_l(K_k) share")
    return CutResult(
        partition=part,
        crossing=crossing,
        method=method,
        meta={
            "l": l,
            "fine_k": k,
            "fine_crossing": fine_crossing,
            "grouped_internal_weight": fine_crossing - crossing,
        },
    )


def _grouping_scores(w: np.ndarray, rem: np.ndarray, needed: tuple[int, ...]) -> np.ndarray:
    """(B, N) int64: for each row of rem, B ascending label sets of size r,
    the internal weight of each of its N partitions into unlabeled groups
    of the sizes `needed` (descending).

    The groupings come in this order, each once: the smallest label left
    anchors a fresh group of each still-needed size in turn (one
    representative size per multiplicity), its mates in combinations
    order, then come the groupings of the labels left.  All B rows are
    scored at once, level by level: the C groups an anchor can take are one
    (B * C, s) array, and the labels they leave one (B * C, r - s) array,
    scored by the next level."""
    if len(needed) == 1:
        return _inside_weight(w, rem)[:, None]
    if needed[0] == 1:  # all singletons: one grouping, nothing inside
        return np.zeros((len(rem), 1), dtype=np.int64)
    B, r = rem.shape
    scores = []
    for i, s in enumerate(needed):
        if s in needed[:i]:
            continue
        count = comb(r - 1, s - 1)
        mates = np.fromiter(
            chain.from_iterable(combinations(range(1, r), s - 1)),
            dtype=np.intp, count=count * (s - 1),
        ).reshape(count, s - 1)
        taken = np.zeros((count, r), dtype=bool)
        taken[:, 0] = True
        taken[np.arange(count)[:, None], mates] = True
        inside = rem[:, taken.nonzero()[1].reshape(count, s)].reshape(B * count, s)
        left = rem[:, (~taken).nonzero()[1].reshape(count, r - s)].reshape(B * count, r - s)
        tails = _grouping_scores(w, left, needed[:i] + needed[i + 1 :])
        scores.append((_inside_weight(w, inside)[:, None] + tails).reshape(B, -1))
    return np.concatenate(scores, axis=1)


def _nth_grouping(k: int, needed: tuple[int, ...], index: int) -> list[list[int]]:
    """The grouping of 0..k-1 at position `index` in _grouping_scores'
    order, found by counting the groupings of each anchor's choices."""
    rem: list[int] = list(range(k))
    groups = []
    while needed:
        anchor, rest = rem[0], rem[1:]
        for i, s in enumerate(needed):
            if s in needed[:i]:
                continue
            left = needed[:i] + needed[i + 1 :]
            tails = _grouping_count(len(rest) - s + 1, left)
            block = comb(len(rest), s - 1) * tails
            if index < block:
                break
            index -= block
        c, index = divmod(index, tails)
        mates = next(islice(combinations(rest, s - 1), c, None))
        groups.append([anchor, *mates])
        rem = [v for v in rest if v not in mates]
        needed = left
    return groups


def surplus_compose(
    G: Graph,
    pieces: list[int],
    parts: list[VertexPartition],
    l: int,
) -> CutResult:
    """Stitch per-piece l-cuts into one l-cut of G, aligning each piece's
    labels by the permutation that maximizes crossing edges to the vertices
    already placed: the first of the l! permutations with the fewest of
    those edges inside a label, so a piece with none keeps its labels.  The
    pieces must cover G, and lift_pieces gives each vertex a piece id and a
    label, its block in its piece until the piece is aligned; the alignment
    matrix is one bincount of (piece label, placed label) over the piece's
    edges to the pieces before it.

    Averaging over permutations, the best one leaves at most a 1/l share of
    those edges inside, so same * l <= between, where between counts the
    edges joining two pieces and same those whose ends share a label.  As
    m - sum_i m_i = between and crossing - sum_i crossing_i = between - same,
    that is crossing >= sum_i crossing_i + (1 - 1/l)(m - sum_i m_i), checked
    exactly.
    """
    if l < 1:
        raise ValueError("l must be positive")
    if l > _COMPOSE_LABEL_LIMIT:
        raise CapabilityError(
            f"label alignment enumerates l! permutations; needs l <= "
            f"{_COMPOSE_LABEL_LIMIT}"
        )
    piece, verts, label = lift_pieces(G, pieces, parts)
    if len(verts) != G.n:
        raise ValueError("pieces must cover every vertex")
    if any(part.k != l for part in parts):
        raise ValueError("every piece needs exactly l blocks")
    piece_of = np.empty(G.n, dtype=np.int64)
    piece_of[verts] = piece
    label = label[np.argsort(verts)]  # by vertex
    ends_piece = piece_of[G.ends]
    within = ends_piece[:, 0] == ends_piece[:, 1]
    # the edges between pieces in both directions, as (u, v)
    u, v = np.concatenate((G.ends[~within], G.ends[~within, ::-1])).T
    for i in range(1, len(pieces)):
        near = (piece_of[u] == i) & (piece_of[v] < i)
        align = np.bincount(l * label[u[near]] + label[v[near]], minlength=l * l)
        if align.any():
            perms = np.array(list(permutations(range(l))))
            perm = perms[align.reshape(l, l)[np.arange(l), perms].sum(axis=1).argmin()]
            mine = verts[piece == i]
            label[mine] = perm[label[mine]]
    ends_label = label[G.ends]
    shared = ends_label[:, 0] == ends_label[:, 1]
    between = G.m - int(np.count_nonzero(within))
    same = int(np.count_nonzero(shared & ~within))
    if same * l > between:
        raise InvariantViolation("label alignment fell below the (1-1/l) share")
    crossing = G.m - int(np.count_nonzero(shared))
    blocks = label_masks(l, G.n, label, np.arange(G.n))
    return CutResult(
        partition=VertexPartition(G.n, tuple(blocks)),
        crossing=crossing,
        method="surplus-compose",
        meta={
            "l": l,
            "pieces": len(pieces),
            "inner_crossing": crossing - between + same,
            "inner_edges": G.m - between,
        },
    )


def _no_edge_cut(G: Graph) -> CutResult:
    """The two-cut of an edgeless graph: every vertex on one side."""
    return CutResult(
        VertexPartition(G.n, (G.full_mask, 0)), 0, "trivial", {"k": 2}
    )


def maxcut_dense_driver(G: Graph, r: int, seed: int = 0) -> CutResult:
    """Two-cut of a (2r+1)-cycle-free graph that beats m/2 by m/(4(k-1)) in
    the dense regime.

    k is the smallest even number with k^r * m >= 2 c_r n^2 (clamped to the
    largest even number <= n when the graph is too sparse for that to fit);
    the odd-cycle-free partitioner then deletes m_0 <= c_r n^2 / k^r <= m/(2k)
    edges, so its k-cut crosses m - m_0 edges and coarsening to two groups
    keeps a d_2(K_k) = k/(2(k-1)) share:

        crossing >= (m - m/(2k)) * k/(2(k-1)) = m/2 + m/(4(k-1)).

    A plain local-search two-cut, local_search_cut(G, 2, seed), is always
    compared as well and the better cut returned, so 2 * crossing >= m holds
    unconditionally.  maxcut_odd_cycle_free hands down the one it already
    has when the dense core is all of G; otherwise it is computed here.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if G.m == 0:
        return _no_edge_cut(G)
    return _dense_driver(G, r, local_search_cut(G, 2, seed=seed))


def _dense_driver(G: Graph, r: int, greedy2: CutResult) -> CutResult:
    """maxcut_dense_driver on a graph with edges, given its local-search
    two-cut."""
    n, m = G.n, G.m
    c_r = 4 * (12 * r) ** r + (100 * r**4 if r >= 2 else 0)
    need = (2 * c_r * n * n + m - 1) // m
    k0 = iroot(need, r)
    if k0**r < need:
        k0 += 1
    k_raw = k0 + (k0 % 2)
    k_cap = n - (n % 2)
    k = max(2, min(k_raw, k_cap))
    clamped = k != k_raw
    report = partition_odd_cycle_free(G, k, r)
    m0 = report.deleted
    fine = report.partition
    coarse = coarsen_cut(G, fine, 2)
    best = coarse if coarse.crossing >= greedy2.crossing else greedy2
    dense = 2 * k * m0 <= m
    if dense and best.crossing * 4 * (k - 1) < m * (2 * k - 1):
        raise InvariantViolation(
            "dense-regime cut fell below m/2 + m/(4(k-1))"
        )
    if 2 * best.crossing < m:
        raise InvariantViolation("cut fell below m/2")
    return CutResult(
        partition=best.partition,
        crossing=best.crossing,
        method=f"driver/{best.method}",
        meta={
            "r": r,
            "k": k,
            "k_raw": k_raw,
            "clamped": clamped,
            "deleted_by_partitioner": m0,
            "dense_regime": dense,
            "coarse_crossing": coarse.crossing,
            "local_search_crossing": greedy2.crossing,
        },
    )


def maxcut_odd_cycle_free(G: Graph, r: int, seed: int = 0) -> CutResult:
    """Two-cut of a (2r+1)-cycle-free graph: run the dense driver on the
    high-degree core when it holds at least half the edges, cut the rest by
    local search, and align the halves; otherwise plain local search.

    The core is U = {v : deg(v)^(r+4) >= m^2}; both branches keep
    2 * crossing >= m, checked exactly.
    """
    if r < 1:
        raise ValueError("r must be positive")
    n, m = G.n, G.m
    if m == 0:
        return _no_edge_cut(G)
    core = mask_of(v for v in range(n) if G.degree(v) ** (r + 4) >= m * m)
    Hc, _ = G.induced(core)
    greedy2 = local_search_cut(G, 2, seed=seed)
    if 2 * Hc.m >= m:
        rest = G.full_mask & ~core
        if Hc is G:  # the driver's local-search cut is greedy2 itself, and rest is empty
            core_cut = _dense_driver(G, r, greedy2)
            rest_part = VertexPartition(0, (0, 0))
        else:
            core_cut = maxcut_dense_driver(Hc, r, seed=seed)
            rest_part = local_search_cut(G.induced(rest)[0], 2, seed=seed).partition
        stitched = surplus_compose(G, [core, rest], [core_cut.partition, rest_part], 2)
        best = stitched if stitched.crossing >= greedy2.crossing else greedy2
        method = f"core/{best.method}"
        meta = {
            "branch": "dense-core",
            "r": r,
            "core_size": core.bit_count(),
            "core_edges": Hc.m,
            "core_crossing": core_cut.crossing,
            "stitched_crossing": stitched.crossing,
            "local_search_crossing": greedy2.crossing,
        }
    else:
        best = greedy2
        method = f"sparse/{best.method}"
        meta = {"branch": "sparse", "r": r, "core_size": core.bit_count(),
                "core_edges": Hc.m}
    if 2 * best.crossing < m:
        raise InvariantViolation("cut fell below m/2")
    surplus = Fraction(2 * best.crossing - m, 2)
    meta["surplus"] = surplus
    meta["surplus_ratio"] = float(surplus) / m ** (1.0 - 1.0 / (r + 4))
    return CutResult(
        partition=best.partition,
        crossing=best.crossing,
        method=method,
        meta=meta,
    )
