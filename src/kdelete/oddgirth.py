"""Partitioning graphs of large odd girth with few deleted edges.

The engine repeatedly peels off an induced subset with poor neighborhood
expansion: growing BFS layers from a well-connected start vertex, some layer
within distance r must fail to expand by the factor x = (|S| n / D(S))^(1/r),
because r consecutive expansions would overshoot the total degree mass.  When
the graph has odd girth above 2r + 1 every BFS layer is an independent set,
so stitching the peeled layers together yields large independent blocks and
the completed k-partition deletes few edges.

Degree sums D(.) always count edges of the *whole* graph, not the induced
subgraph, which is what makes the peeling argument compose across rounds.
All expansion and decay inequalities are checked exactly (integer powers,
no floating point) on every run, and they hold on arbitrary graphs; large
odd girth is only needed for the blocks to come out independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .bounds import ceil_mul_sqrt, decay_step_holds, sqrt_bound_holds
from .errors import (
    EmptyWorkingSet,
    ForbiddenCyclePresent,
    InvariantViolation,
    OddGirthTooSmall,
)
from .graphs import (
    Graph,
    _check_cycle_length,
    _cycles,
    _triangles,
    bfs_layers,
    bit_rows,
    degree_sum,
    find_cycle_of_length,
    neighborhood,
    odd_girth,
    row_bits,
)
from .partition import BoundReport, greedy_complete, trivial_distinct


@dataclass(frozen=True)
class ExpansionWitness:
    """A subset B of the working set S whose neighborhood inside S is light.

    g = D(N(B) cap S) - D(B) is the degree mass the neighborhood adds on top
    of B itself; the guarantee is g <= x * D(B) with x^r = |S| n / D(S),
    checked exactly as g^r * D(S) <= D(B)^r * |S| * n (or g <= 0).  `layer`
    records which BFS layer from `center` became B (layer r means the scan
    found no early failure and took the last layer).
    """

    smask: int
    bmask: int
    center: int
    layer: int
    d_s: int
    d_b: int
    g: int
    r: int

    def holds(self, n: int) -> bool:
        if self.g <= 0:
            return True
        size_s = self.smask.bit_count()
        return self.g**self.r * self.d_s <= self.d_b**self.r * size_s * n


def _center_masses(G: Graph, smask: int) -> np.ndarray:
    """int64 array whose entry v is D(N(v) cap S) = degree_sum(G, adj[v] & S).

    With weight[u] = deg(u) for u in S and 0 elsewhere, each edge uv adds
    weight[u] to mass[v] and weight[v] to mass[u].  Every sum is exact:
    mass[v] <= 2m < n^2 <= 10^8 at MAX_VERTICES, far inside int64.
    """
    n = G.n
    inside = row_bits(bit_rows([smask], n), n)[0]
    weight = np.bincount(G.ends.ravel(), minlength=n) * inside
    mass = np.zeros(n, dtype=np.int64)
    u, v = G.ends.T
    np.add.at(mass, u, weight[v])
    np.add.at(mass, v, weight[u])
    return mass


def find_poor_expansion_set(G: Graph, smask: int, r: int) -> ExpansionWitness:
    """BFS layer inside S whose next layer fails the x-expansion test.

    The start vertex maximizes D(N(v) cap S) over all of V, scored for every
    v at once from the edge array (`_center_masses`); ties go to the lowest
    index, the first maximum `argmax` returns.  Layers are grown inside S,
    and the first layer i < r with D(N_{i+1}) < x * D(N_i) is returned; if
    every test passes, layer r is already heavy enough that its neighborhood
    cannot out-scale it.  Either way the returned witness satisfies
    g <= x * D(B) on any graph.
    """
    if r < 1:
        raise ValueError("r must be positive")
    d_s = degree_sum(G, smask)
    if d_s == 0:
        raise EmptyWorkingSet("working set has no incident edges")
    n = G.n
    size_s = smask.bit_count()
    best_v = int(_center_masses(G, smask).argmax())
    layers = list(islice(bfs_layers(G.adj, 1 << best_v, smask), r + 1))
    layers += [0] * (r + 1 - len(layers))
    # x^r = |S| n / D(S); compare D(N_{i+1}) < x * D(N_i) exactly by raising
    # both sides to the r-th power.
    masses = [degree_sum(G, lay) for lay in layers]
    chosen = r
    for i in range(1, r):
        if masses[i + 1] ** r * d_s < masses[i] ** r * size_s * n:
            chosen = i
            break
    bmask = layers[chosen]
    d_b = masses[chosen]
    nb = neighborhood(G, bmask) & smask
    g = degree_sum(G, nb) - d_b
    witness = ExpansionWitness(
        smask=smask,
        bmask=bmask,
        center=best_v,
        layer=chosen,
        d_s=d_s,
        d_b=d_b,
        g=g,
        r=r,
    )
    if not witness.holds(n):
        raise InvariantViolation("expansion witness failed its exact check")
    return witness


@dataclass(frozen=True)
class ExtractionResult:
    """Union of peeled layers with at least D(S)/(8x) of the degree mass.

    The exact guarantee is (8 D(A))^r |S| n >= D(S)^(r+1); A is independent
    whenever the graph has odd girth above 2r + 1 (each layer is independent
    then, and later layers avoid earlier neighborhoods entirely).
    """

    amask: int
    smask: int
    d_s: int
    d_a: int
    r: int
    witnesses: tuple[ExpansionWitness, ...] = field(repr=False)

    def holds(self, n: int) -> bool:
        size_s = self.smask.bit_count()
        return (8 * self.d_a) ** self.r * size_s * n >= self.d_s ** (self.r + 1)


def extract_independent_set(G: Graph, smask: int, r: int) -> ExtractionResult:
    """Peel poor-expansion sets until half the degree mass of S is gone.

    Each round removes its set B together with N(B) from the working copy,
    so the peeled sets are pairwise non-adjacent; every round costs at most
    (2 + x_i) D(B_i) of degree mass with x_i <= 2^(1/r) x, hence
    D(S)/2 < (2 + 2x) sum D(B_i) <= 4x D(A) and D(A) >= D(S)/(8x).
    """
    d_orig = degree_sum(G, smask)
    if d_orig == 0:
        raise EmptyWorkingSet("working set has no incident edges")
    amask = 0
    witnesses = []
    cur = smask
    while 2 * degree_sum(G, cur) >= d_orig:
        w = find_poor_expansion_set(G, cur, r)
        amask |= w.bmask
        cur &= ~(w.bmask | neighborhood(G, w.bmask))
        witnesses.append(w)
    result = ExtractionResult(
        amask=amask,
        smask=smask,
        d_s=d_orig,
        d_a=degree_sum(G, amask),
        r=r,
        witnesses=tuple(witnesses),
    )
    if not result.holds(G.n):
        raise InvariantViolation("extraction fell short of its degree-mass bound")
    return result


def partition_odd_girth(
    G: Graph, k: int, r: int, verify: bool = False
) -> BoundReport:
    """k-partition of a graph with odd girth above 2r + 1, deleting at most
    4 (12 r)^r n^2 / k^(r+1) edges.

    k rounds of extraction remove only the peeled set A_i from the working
    set (its neighborhood stays available to later rounds), so the degree
    mass D(S_i) obeys the exact decay (8 (D_i - D_{i+1}))^r n^2 >= D_i^(r+1)
    each round; k rounds drive it down to D(S_{k+1}) <= 4 (12 r)^r n^2 / k^r.
    Completing greedily over the k seeds costs at most D(S_{k+1}) / k more,
    and independent seeds contribute nothing themselves.

    With verify=True the odd girth is searched up to 2r + 1 first and
    OddGirthTooSmall raised if it is <= 2r + 1; without it the report is
    still honest (the deletion count is real), but the closed-form ceiling
    is only guaranteed under the girth hypothesis.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if r < 1:
        raise ValueError("r must be positive")
    n = G.n
    if verify:
        og = odd_girth(G, 2 * r + 1)  # exact whenever it fails the check
        if og <= 2 * r + 1:
            raise OddGirthTooSmall(
                f"odd girth {og} is not above {2 * r + 1}", witness=og
            )
    trajectory = [degree_sum(G, G.full_mask)]
    meta = {"r": r, "trajectory": trajectory}
    if k >= n:
        partition = trivial_distinct(n, k)
    else:
        seeds: list[int] = []
        cur = G.full_mask
        rounds = 0
        for _ in range(k):
            d_cur = degree_sum(G, cur)
            if d_cur == 0:
                seeds.append(0)
                trajectory.append(0)
                continue
            res = extract_independent_set(G, cur, r)
            seeds.append(res.amask)
            cur &= ~res.amask
            d_next = degree_sum(G, cur)
            if not decay_step_holds(d_cur, d_next, n, r):
                raise InvariantViolation("degree-mass decay step failed")
            trajectory.append(d_next)
            rounds += len(res.witnesses)
        d_final = degree_sum(G, cur)
        partition, added = greedy_complete(G, seeds, k=k)
        if added * k > d_final:
            raise InvariantViolation("greedy completion exceeded the leftover mass")
        meta.update(
            added=added, leftover_bound=Fraction(d_final, k), peel_rounds=rounds
        )
    return BoundReport(
        partition=partition,
        deleted=partition.internal_count(G),
        bound=Fraction(4 * (12 * r) ** r * n * n, k ** (r + 1)),
        bound_formula="4*(12r)^r*n^2/k^(r+1)",
        precondition_checked=verify,
        meta=meta,
    )


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of deleting every odd cycle shorter than 2r + 1.

    Whole cycles are deleted at once (all ell edges), shortest lengths
    first, so no deletion can create a shorter odd cycle than the one being
    cleared.  When the input has no (2r+1)-cycle the number of removed edges
    stays below 100 r^4 n^(3/2).
    """

    graph: Graph
    r: int
    removed_edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def removed(self) -> int:
        return len(self.removed_edges)

    def holds(self, n: int) -> bool:
        return sqrt_bound_holds(self.removed, 100 * self.r**4, n**3)

    def to_json(self):
        return {
            "removed": self.removed,
            "removed_edges": [list(e) for e in self.removed_edges],
            "cycles_cleared": len(self.cycles),
            "r": self.r,
        }


def scrub_short_odd_cycles(G: Graph, r: int) -> ScrubReport:
    """Delete whole odd cycles of length 3, 5, ..., 2r - 1 until none remain.

    r = 1 is the identity.  The result has odd girth at least 2r + 1; if the
    input additionally had no (2r+1)-cycle the result's odd girth exceeds
    2r + 1 (deletions never create cycles) and the removal count obeys the
    n^(3/2) ceiling, which `holds` checks exactly.

    Each length takes the first cycle in find_cycle_of_length's order, again
    and again, and the edges come off one adjacency list in place: triangles
    from the edge walk of graphs._triangles, which visits only the edges
    with a common neighbour, and longer cycles from the DFS of
    graphs._cycles, which resumes at the last cycle's anchor.  Both find
    exactly the cycles a search from anchor 0 on the rebuilt graph would
    find, since deleting edges creates no cycle.  For the same reason a
    length ell >= 5 is skipped when the bounded odd_girth of the graph left
    after the shorter lengths exceeds ell: no ell-cycle is left to find.
    The graph is rebuilt only for that test and at the end.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r > 1:
        _check_cycle_length(2 * r - 1)
    adj = list(G.adj)
    removed: list[tuple[int, int]] = []
    cycles: list[tuple[int, ...]] = []
    kept = 0  # removed[:kept] are already deleted from G
    for ell in range(3, 2 * r, 2):
        if ell == 3:
            found = _triangles(G, adj)
        else:
            if kept < len(removed):
                G, kept = G.delete_edges(removed[kept:]), len(removed)
            if odd_girth(G, ell) > ell:
                continue
            found = _cycles(adj, ell)
        for cyc in found:
            for i in range(ell):
                u, v = cyc[i], cyc[(i + 1) % ell]
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                removed.append((u, v) if u < v else (v, u))
            cycles.append(cyc)
    if kept < len(removed):
        G = G.delete_edges(removed[kept:])
    return ScrubReport(
        graph=G, r=r, removed_edges=tuple(removed), cycles=tuple(cycles)
    )


def partition_odd_cycle_free(
    G: Graph, k: int, r: int, verify: bool = False
) -> BoundReport:
    """k-partition of a graph with no (2r+1)-cycle: scrub the shorter odd
    cycles, then run the odd-girth engine on what is left.

    deleted counts scrubbed edges plus the partition's internal edges in the
    scrubbed graph; the ceiling adds ceil(100 r^4 n^(3/2)) for the scrub on
    top of the odd-girth term.  verify=True searches for a (2r+1)-cycle up
    front and raises ForbiddenCyclePresent with the cycle as witness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if r < 1:
        raise ValueError("r must be positive")
    n = G.n
    if verify:
        cyc = find_cycle_of_length(G, 2 * r + 1)
        if cyc is not None:
            raise ForbiddenCyclePresent(
                f"found a {2 * r + 1}-cycle", witness=cyc
            )
    scrub = scrub_short_odd_cycles(G, r)
    inner = partition_odd_girth(scrub.graph, k, r)
    deleted = scrub.removed + inner.deleted
    bound = inner.bound + Fraction(ceil_mul_sqrt(100 * r**4, n**3))
    meta = dict(inner.meta)
    meta["scrub"] = scrub.to_json()
    meta["inner_deleted"] = inner.deleted
    return BoundReport(
        partition=inner.partition,
        deleted=deleted,
        bound=bound,
        bound_formula="4*(12r)^r*n^2/k^(r+1) + ceil(100*r^4*n^(3/2))",
        precondition_checked=verify,
        meta=meta,
    )
