"""Vertex partitions, deletion accounting, and the generic builders.

A partition into k blocks certifies k-colorability of the graph left after
deleting the edges internal to blocks, so every partitioner here reports its
internal-edge count next to a proved ceiling for it (BoundReport).  The
builders shared by all of them:

* greedy_complete   -- extend seed blocks over the remaining vertices; the
                       completion adds at most (m - e(G[union of seeds])) / k
                       internal edges
* polish            -- single-vertex moves to a local optimum; the internal
                       count never rises
* lift_pieces       -- each piece's vertices with their labels from the
                       piece's own partition, as aligned arrays
* compose_partition -- seed blocks from the lifted labels, offset past the
                       blocks of the pieces before it (graphs.label_masks),
                       finished with greedy_complete
* balanced_partition -- greedy from empty seeds; internal edges <= m/k
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvariantViolation
from .graphs import _BLOCK, Graph, bit_rows, label_masks, row_bits


@dataclass(frozen=True)
class VertexPartition:
    """Blocks as disjoint bit masks covering 0..n-1 (empty blocks allowed)."""

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if b & union:
                raise InvariantViolation("partition blocks overlap")
            union |= b
        if union != (1 << self.n) - 1:
            raise InvariantViolation("partition blocks do not cover the vertex set")

    @property
    def k(self) -> int:
        return len(self.blocks)

    def labels(self) -> np.ndarray:
        """Each vertex's block index, an int64 array read off the blocks' bit
        rows, converted graphs._BLOCK // words blocks at a time.  Only their
        nonzero words are unpacked, at most n of them, so the scratch is
        O(n + _BLOCK) however many blocks there are."""
        out = np.empty(self.n, dtype=np.int64)
        step = max(1, _BLOCK // max(1, (self.n + 63) // 64))
        for lo in range(0, self.k, step):
            rows = bit_rows(self.blocks[lo : lo + step], self.n)
            block, word = rows.nonzero()
            hit, place = row_bits(rows[block, word].reshape(-1, 1), 64).nonzero()
            out[64 * word[hit] + place] = lo + block[hit]
        return out

    def assignment(self) -> list[int]:
        return self.labels().tolist()

    def _inside(self, G: Graph) -> np.ndarray:
        """Per edge of G.ends, whether both ends share a block."""
        if G.n != self.n:
            raise ValueError("graph size does not match partition")
        lookup = self.labels()
        return lookup[G.ends[:, 0]] == lookup[G.ends[:, 1]]

    def internal_count(self, G: Graph) -> int:
        return int(np.count_nonzero(self._inside(G)))

    def crossing_count(self, G: Graph) -> int:
        return G.m - self.internal_count(G)

    def padded(self, k: int) -> "VertexPartition":
        if k < self.k:
            raise ValueError("cannot pad down")
        return VertexPartition(self.n, self.blocks + (0,) * (k - self.k))

    def to_json(self, G: Graph):
        return {"k": self.k, "labels": self.assignment(),
                "internal_edges": self.internal_count(G)}


@dataclass(frozen=True)
class BoundReport:
    """A finished partition, its deletion count, and the ceiling it satisfies.

    `deleted` counts every edge the construction removed (for scrubbing
    pipelines this can exceed the partition's internal count on the input
    graph, since scrubbed edges are gone whether or not they would have been
    internal).  `bound` is the closed-form ceiling as an exact rational;
    `guarantee_holds` simply compares the two.  `precondition_checked`
    records whether the structural hypothesis behind the bound was verified
    rather than assumed.
    """

    partition: VertexPartition
    deleted: int
    bound: Fraction
    bound_formula: str
    precondition_checked: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def guarantee_holds(self) -> bool:
        return Fraction(self.deleted) <= self.bound

    def require(self) -> "BoundReport":
        if not self.guarantee_holds:
            raise InvariantViolation(
                f"deleted {self.deleted} exceeds the proved ceiling "
                f"{self.bound} = {self.bound_formula}"
            )
        return self

    def to_json(self, G: Graph):
        try:
            decimal = float(self.bound)
        except OverflowError:  # too large for a float
            decimal = "inf"
        return {
            "partition": self.partition.to_json(G),
            "deleted": self.deleted,
            "bound": self.bound,
            "bound_decimal": decimal,
            "bound_formula": self.bound_formula,
            "guarantee_holds": self.guarantee_holds,
            "precondition_checked": self.precondition_checked,
            "meta": self.meta,
        }


def trivial_distinct(n: int, k: int) -> VertexPartition:
    """One vertex per block; only legal when k >= n.  Deletes nothing."""
    if k < n:
        raise ValueError("trivial partition needs k >= n")
    return VertexPartition(n, tuple(1 << v for v in range(n)) + (0,) * (k - n))


def greedy_complete(G: Graph, seeds: Sequence[int], k: int) -> tuple[VertexPartition, int]:
    """Grow the seed blocks, padded with empty ones to k, over the unassigned
    vertices, returning the finished partition and the number of internal
    edges added on the way.

    Vertices are placed in ascending index order into the block gaining the
    fewest internal edges (lowest block index on ties); the scan over the
    blocks stops at the first one holding no neighbour of the vertex, so a
    vertex of degree 0 costs one popcount whatever k is.  Each placement costs
    at most the average over all k blocks, and summing those averages counts
    every edge outside G[union of seeds] at most once, so

        added <= (m - e(G[union of seeds])) / k.
    """
    if k < len(seeds):
        raise ValueError("k smaller than the number of seed blocks")
    if k < 1:
        raise ValueError("need at least one block")
    blocks = list(seeds) + [0] * (k - len(seeds))
    taken = 0
    for b in blocks:
        if b & taken:
            raise ValueError("seed blocks must be disjoint")
        taken |= b
    added = 0
    for v in range(G.n):
        if taken >> v & 1:
            continue
        av = G.adj[v]
        best, best_cost = 0, av.bit_count() + 1  # above every block's count
        for i, b in enumerate(blocks):
            cost = (av & b).bit_count()
            if cost < best_cost:
                best, best_cost = i, cost
                if cost == 0:
                    break
        blocks[best] |= 1 << v
        taken |= 1 << v
        added += best_cost
    return VertexPartition(G.n, tuple(blocks)), added


def polish(G: Graph, labels: Sequence[int], k: int) -> tuple[VertexPartition, int]:
    """Single-vertex moves from the k-block partition that puts vertex v in
    block labels[v], to a local optimum; returns the moved partition and
    its internal-edge count.

    Passes over the vertices in index order move each to the block holding
    the fewest of its neighbours (the lowest such index on ties) when that
    is strictly fewer than in its own block, until a pass moves nothing.
    Each move lowers the count by the difference, so it never rises and the
    loop ends; at the end every vertex has at most deg(v)/k neighbours in
    its own block.
    """
    n = G.n
    lab = np.array(labels, dtype=np.int64)
    blocks = label_masks(k, n, lab, np.arange(n))
    ends = lab[G.ends]
    internal = int(np.count_nonzero(ends[:, 0] == ends[:, 1]))
    labels = list(labels)
    improved = True
    while improved:
        improved = False
        for v in range(n):
            here = labels[v]
            cost_here = (G.adj[v] & blocks[here]).bit_count()
            target, cost = here, cost_here
            for b in range(k):
                if b == here:
                    continue
                c = (G.adj[v] & blocks[b]).bit_count()
                if c < cost:
                    target, cost = b, c
            if target != here:
                blocks[here] &= ~(1 << v)
                blocks[target] |= 1 << v
                labels[v] = target
                internal += cost - cost_here
                improved = True
    return VertexPartition(n, tuple(blocks)), internal


def lift_pieces(
    G: Graph, pieces: Sequence[int], parts: Sequence[VertexPartition]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned int64 arrays (piece, vertex, label) over the vertices of the
    pieces, piece by piece and ascending within each: parts[i] partitions
    the subgraph induced on pieces[i], a vertex mask, its local vertex j
    being the piece's j-th lowest vertex.  The pieces must be disjoint and
    each partition the size of its piece."""
    if len(pieces) != len(parts):
        raise ValueError("pieces and parts are misaligned")
    taken = 0
    for mask, part in zip(pieces, parts):
        if mask & taken:
            raise ValueError("pieces overlap")
        if part.n != mask.bit_count():
            raise ValueError("partition size does not match the vertex list")
        taken |= mask
    if taken >> G.n:
        raise ValueError("pieces must lie inside the vertex set")
    piece, verts = row_bits(bit_rows(pieces, G.n), G.n).nonzero()
    labels = np.concatenate([np.zeros(0, np.int64), *(part.labels() for part in parts)])
    return piece, verts, labels


def compose_partition(
    G: Graph, pieces: Sequence[int], parts: Sequence[VertexPartition], k: int
) -> tuple[VertexPartition, int]:
    """Lift per-piece partitions into seed blocks and greedily complete to k.

    pieces and parts are as in lift_pieces; each piece's labels are offset
    past the blocks of the pieces before it.  With s blocks per piece and t
    pieces, the completion adds at most (m - e(G[union of the pieces])) /
    (s*t) internal edges on top of whatever the pieces already contain.
    """
    piece, verts, label = lift_pieces(G, pieces, parts)
    offset = np.cumsum([0] + [part.k for part in parts])
    seeds = label_masks(int(offset[-1]), G.n, offset[piece] + label, verts)
    return greedy_complete(G, seeds, k)


def balanced_partition(G: Graph, k: int) -> tuple[VertexPartition, int]:
    """Greedy completion from k empty seeds: internal edges <= m/k."""
    part, added = greedy_complete(G, [], k)
    if added * k > G.m:
        raise InvariantViolation("balanced partition exceeded the m/k guarantee")
    return part, added
