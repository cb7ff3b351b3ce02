import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete import partition as P
from kdelete.constructions import random_graph
from kdelete.errors import InvariantViolation
from kdelete.graphs import build_graph, edges_inside, format_edge_list, mask_of, parse_edge_list
from kdelete.maxcut import _pair_weights, max_k_cut_exact
from kdelete.partition import (
    VertexPartition,
    balanced_partition,
    compose_partition,
    greedy_complete,
    polish,
    trivial_distinct,
)

random_instances = st.builds(
    random_graph,
    n=st.integers(2, 16),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(0, 2**32),
)


def test_partition_invariants():
    p = VertexPartition(4, (0b0011, 0b1100))
    assert p.k == 2 and p.blocks == (0b0011, 0b1100)
    assert p.labels().tolist() == p.assignment() == [0, 0, 1, 1]
    with pytest.raises(InvariantViolation):
        VertexPartition(4, (0b0011, 0b0110))  # overlap
    with pytest.raises(InvariantViolation):
        VertexPartition(4, (0b0011,))  # not covering


@given(random_instances, st.integers(1, 5), st.booleans(), st.randoms(use_true_random=False))
def test_edge_array_counts_match_per_edge_loops(G, k, parsed, rnd):
    if parsed:  # array-backed rather than tuple-backed
        G = parse_edge_list(format_edge_list(G))
    blocks = [0] * k
    for v in range(G.n):
        blocks[rnd.randrange(k)] |= 1 << v
    part = VertexPartition(G.n, tuple(blocks))
    label = [next(i for i, b in enumerate(blocks) if b >> v & 1) for v in range(G.n)]
    assert part.labels().tolist() == label
    inside = tuple((u, v) for u, v in G.edges if label[u] == label[v])
    weights = [[0] * k for _ in range(k)]
    for u, v in G.edges:
        if label[u] != label[v]:
            weights[label[u]][label[v]] += 1
            weights[label[v]][label[u]] += 1
    assert part.internal_count(G) == len(inside)
    assert part.crossing_count(G) == G.m - len(inside)
    assert _pair_weights(G, part).tolist() == weights


def test_counts_refuse_a_graph_of_another_size():
    part = VertexPartition(4, (0b0011, 0b1100))
    G = cons.cycle(3)
    for count in (part.internal_count, part.crossing_count):
        with pytest.raises(ValueError, match="graph size does not match partition"):
            count(G)


def test_counting_against_each_other(petersen):
    p = VertexPartition(10, (mask_of(range(5)), mask_of(range(5, 10))))
    assert p.internal_count(petersen) + p.crossing_count(petersen) == petersen.m
    label = p.labels()
    inside = [(u, v) for u, v in petersen.edges if label[u] == label[v]]
    assert len(inside) == p.internal_count(petersen)


def test_trivial_distinct():
    p = trivial_distinct(3, 5)
    assert p.k == 5 and p.blocks == (0b001, 0b010, 0b100, 0, 0)


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_labels_match_across_chunks_of_blocks(monkeypatch, block):
    # one 64-bit word per block row, so each chunk holds `block` blocks
    monkeypatch.setattr(P, "_BLOCK", block)
    blocks = (0b1000100, 0, 0b0010011, 0b0100000, 0b0001000)
    label = [next(i for i, b in enumerate(blocks) if b >> v & 1) for v in range(7)]
    assert VertexPartition(7, blocks).labels().tolist() == label


@pytest.mark.parametrize("make, expected", [
    # vertex 1 alone in block 1, every other vertex in block 0
    (lambda: max_k_cut_exact(build_graph(10000, [(0, 1)]), 10000).partition,
     lambda: (np.arange(10000) == 1).astype(np.int64)),
    (lambda: trivial_distinct(10000, 10000), lambda: np.arange(10000)),
], ids=["one-edge-max-cut", "trivial-distinct"])
def test_labels_scratch_stays_small_with_as_many_blocks_as_vertices(make, expected):
    part = make()
    tracemalloc.start()
    try:
        labels = part.labels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.tolist() == expected().tolist()
    # about 1.8 MiB when the blocks are converted a chunk at a time; all
    # 10,000 bit rows at once take 25 MiB
    assert peak < 4 * 2**20


@given(random_instances, st.integers(1, 5), st.randoms(use_true_random=False))
def test_polish_lowers_the_count_to_a_local_optimum(G, k, rnd):
    labels = [rnd.randrange(k) for _ in range(G.n)]
    start = VertexPartition(G.n, tuple(mask_of(v for v, i in enumerate(labels) if i == j)
                                       for j in range(k)))
    part, internal = polish(G, labels, k)
    assert part.k == k
    assert internal == part.internal_count(G) <= start.internal_count(G)
    for v in range(G.n):  # no single move lowers the count
        here = next(i for i, b in enumerate(part.blocks) if b >> v & 1)
        inside = (G.adj[v] & part.blocks[here]).bit_count()
        assert all((G.adj[v] & b).bit_count() >= inside for b in part.blocks)


@given(random_instances, st.integers(1, 6))
def test_greedy_complete_averaging(G, k):
    """Completing from empty seeds adds at most m/k internal edges; more
    generally at most (m - e(G[union of seeds]))/k."""
    part, added = greedy_complete(G, [0] * k, k=k)
    assert part.k == k
    assert added * k <= G.m
    assert part.internal_count(G) == added


@given(random_instances, st.integers(2, 5))
def test_greedy_complete_respects_seed_edges(G, k):
    seed_mask = G.full_mask & ((1 << (G.n // 2)) - 1)
    seeds = [seed_mask] + [0] * (k - 1)
    part, added = greedy_complete(G, seeds, k=k)
    inside = edges_inside(G, seed_mask)
    assert added * k <= G.m - inside
    # seed vertices stayed in block 0
    assert part.blocks[0] & seed_mask == seed_mask


@given(random_instances, st.integers(2, 4))
def test_balanced_partition_bound(G, k):
    part, deleted = balanced_partition(G, k)
    assert deleted == part.internal_count(G)
    assert deleted * k <= G.m  # hence deleted * 2k <= n^2
    assert deleted * 2 * k <= G.n**2


def test_compose_partition_counts(petersen):
    # two interleaved pieces, inner partitions, composed to k=4
    outer = mask_of(range(0, 10, 2))
    inner = mask_of(range(1, 10, 2))
    p_outer = VertexPartition(5, (0b00011, 0b11100))
    p_inner = VertexPartition(5, (0b00111, 0b11000))
    part, added = compose_partition(
        petersen, [outer, inner], [p_outer, p_inner], k=4
    )
    assert part.k == 4
    assert part.internal_count(petersen) >= added  # inner blocks add their own
    # local vertex i of a piece is its i-th lowest vertex
    assert part.blocks == tuple(map(mask_of, ([0, 2], [4, 6, 8], [1, 3, 5], [7, 9])))
    assert added == 0


def test_greedy_complete_prefers_light_blocks():
    # a star: center last, leaves seeded apart -> center joins the empty block
    G = cons.complete_bipartite(1, 6)
    part, added = greedy_complete(G, [0, 0, 0], k=3)
    assert added * 3 <= G.m
    assert part.internal_count(G) == added
