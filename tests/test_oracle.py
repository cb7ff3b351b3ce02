import random
import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete import oracle
from kdelete.constructions import random_graph
from kdelete.corpus import book, kneser, mycielski, random_n8_suite, windmill
from kdelete.errors import BudgetExceeded, CapabilityError
from kdelete.graphs import Graph, bfs_layers, build_graph
from kdelete.oracle import (
    _branch_and_bound,
    canonical_code,
    enumerate_graphs,
    exact_h,
    exact_h_plain,
    is_k_colorable,
    mantel_worst_uncovered,
    min_internal_partition,
    min_uncovered_single,
    twin_classes,
)
from kdelete.partition import VertexPartition, greedy_complete

# frozen by hand: h(C5,2)=1 (one odd cycle), h(K4,2)=2, h(K5,2)=4
# (K5 2-cut leaves C(3,2)+C(2,2)=4), h(Petersen,2)=3, and 3-colorable
# graphs have h(.,3)=0
FROZEN_H = [
    (cons.cycle(5), 2, 1),
    (cons.cycle(7), 2, 1),
    (cons.complete(4), 2, 2),
    (cons.complete(5), 2, 4),
    (cons.complete(4), 3, 1),
    (cons.petersen(), 2, 3),
    (cons.petersen(), 3, 0),
    (cons.complete_bipartite(3, 4), 2, 0),
    (cons.hypercube(3), 2, 0),
    (cons.blow_up(cons.cycle(5), 2), 2, 4),
]


@pytest.mark.parametrize("G,k,expected", [(g, k, e) for g, k, e in FROZEN_H])
def test_exact_h_frozen(G, k, expected):
    assert exact_h(G, k) == expected


def test_min_internal_partition_is_witnessed(petersen):
    value, part = min_internal_partition(petersen, 2)
    assert value == 3
    assert part.internal_count(petersen) == 3


def test_exact_h_plain_agrees_with_branch_and_bound(small_random_graphs):
    for G in small_random_graphs:
        if G.n <= 8:
            assert exact_h(G, 2) == exact_h_plain(G, 2)


def test_budget_and_env(monkeypatch, petersen):
    with pytest.raises(BudgetExceeded):
        min_internal_partition(petersen, 2, budget=3)
    monkeypatch.setenv("KDELETE_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        min_internal_partition(petersen, 2)
    monkeypatch.delenv("KDELETE_BUDGET")
    min_internal_partition(petersen, 2)


def test_search_skips_the_vertices_of_degree_zero(petersen):
    # Petersen's vertices at 10 seeded places among 40: the 30 others touch
    # nothing, so the search enters Petersen's own nodes and leaves them in
    # block 0.  Branching on each of them ran past a 1000-node budget.
    spots = sorted(random.Random(5).sample(range(40), 10))
    G = build_graph(40, [(spots[u], spots[v]) for u, v in petersen.edges])
    alone = G.full_mask & ~sum(1 << v for v in spots)
    cost, part = min_internal_partition(G, 2, budget=1000)
    base, inner = min_internal_partition(petersen, 2)
    assert cost == base == 3
    assert part.blocks[0] & alone == alone
    assert part.labels()[spots].tolist() == inner.labels().tolist()
    assert _branch_and_bound(G, 2, 10**7)[2] == _branch_and_bound(petersen, 2, 10**7)[2] == 23


def test_is_k_colorable():
    assert is_k_colorable(cons.cycle(6), 2)
    assert not is_k_colorable(cons.cycle(5), 2)
    assert is_k_colorable(cons.cycle(5), 3)
    assert not is_k_colorable(cons.complete(4), 3)
    assert not is_k_colorable(cons.petersen(), 2)
    assert is_k_colorable(cons.petersen(), 3)


def test_exact_h_zero_iff_colorable(small_random_graphs):
    for G in small_random_graphs[:10]:
        if G.n <= 9:
            assert (exact_h(G, 2) == 0) == is_k_colorable(G, 2)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    # graphs up to isomorphism: OEIS A000088 gives 2, 4, 11, 34
    assert sum(1 for _ in enumerate_graphs(2, up_to_iso=True)) == 2
    assert sum(1 for _ in enumerate_graphs(3, up_to_iso=True)) == 4
    assert sum(1 for _ in enumerate_graphs(4, up_to_iso=True)) == 11
    assert sum(1 for _ in enumerate_graphs(5, up_to_iso=True)) == 34


def test_enumerate_up_to_iso_keeps_each_class_least_code():
    for n in range(1, 6):
        index = {p: i for i, p in enumerate(combinations(range(n), 2))}
        least = [G.edges for G in enumerate_graphs(n)
                 if canonical_code(G) == sum(1 << index[e] for e in G.edges)]
        assert [G.edges for G in enumerate_graphs(n, up_to_iso=True)] == least


def test_enumerate_limits():
    with pytest.raises(CapabilityError):
        list(enumerate_graphs(8))
    with pytest.raises(CapabilityError):
        list(enumerate_graphs(6, up_to_iso=True))


@given(st.integers(0, 2**32))
@settings(max_examples=20)
def test_canonical_code_is_relabel_invariant(seed):
    G = random_graph(5, 0.5, seed=seed)
    # relabel by a fixed permutation
    perm = [2, 0, 4, 1, 3]
    H = cons.blow_up(G, 1)  # copy
    from kdelete.graphs import build_graph

    H = build_graph(5, [(perm[u], perm[v]) for u, v in G.edges])
    assert canonical_code(G) == canonical_code(H)


def test_min_uncovered_single_matches_definition(petersen, c5):
    # Petersen neighborhoods are independent, so one center covers nothing
    assert min_uncovered_single(petersen) == 15
    assert min_uncovered_single(c5) == 5
    assert min_uncovered_single(cons.complete(4)) == 3


def test_mantel_worst_matches_floor():
    for n in range(1, 8):
        worst, witness = mantel_worst_uncovered(n)
        assert worst == n * n // 4
        # the witness is K_{floor(n/2), ceil(n/2)} on {0, ..., floor(n/2) - 1}
        # and the rest, and attains the value
        half = n // 2
        assert witness == tuple((u, v) for u in range(half) for v in range(half, n))
        assert min_uncovered_single(build_graph(n, list(witness))) == worst


def test_duality_on_small_graphs(small_random_graphs):
    from kdelete.maxcut import max_k_cut_exact

    for G in small_random_graphs[:8]:
        if G.n <= 9:
            for k in (2, 3):
                assert exact_h(G, k) == G.m - max_k_cut_exact(G, k).crossing


def _recursive_min_internal_partition(G, k, budget=10**7):
    """The recursive branch and bound the explicit-stack search replaced,
    kept as a reference; returns (cost, blocks, nodes)."""
    n = G.n
    limit = budget
    part, _ = greedy_complete(G, [0] * k, k)
    best_cost = part.internal_count(G)
    best_blocks = list(part.blocks)
    blocks = [0] * k
    adj = G.adj
    nodes = 0

    def dfs(v: int, used: int, cost: int) -> None:
        nonlocal nodes, best_cost, best_blocks
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(
                f"exact search exceeded {limit} nodes (n={n}, k={k})"
            )
        if v == n:
            if cost < best_cost:
                best_cost = cost
                best_blocks = blocks.copy()
            return
        top = used + 1 if used < k else k
        bit = 1 << v
        av = adj[v]
        for i in range(top):
            extra = (av & blocks[i]).bit_count()
            if cost + extra < best_cost:
                blocks[i] |= bit
                dfs(v + 1, used + (1 if i == used else 0), cost + extra)
                blocks[i] ^= bit

    if best_cost > 0:
        try:
            dfs(0, 0, 0)
        except RecursionError:
            raise CapabilityError(
                f"exact search on n={n} vertices recursed deeper than the "
                "interpreter allows"
            ) from None
    return best_cost, tuple(best_blocks), nodes


def _agrees_with_reference(G, k):
    cost, blocks, nodes = _branch_and_bound(G, k, 10**7)
    ref_cost, ref_blocks, ref_nodes = _recursive_min_internal_partition(G, k)
    assert (cost, blocks) == (ref_cost, ref_blocks)
    assert nodes <= ref_nodes
    assert min_internal_partition(G, k) == (cost, VertexPartition(G.n, blocks))
    return nodes, ref_nodes


def _paley(q: int) -> Graph:
    return cons.circulant(q, sorted({x * x % q for x in range(1, q)} & set(range(1, q // 2 + 1))))


def test_search_matches_reference_on_all_small_graphs():
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            for k in range(1, 5):
                _agrees_with_reference(G, k)


def test_search_matches_reference_on_random_n8_suite():
    for _, G in random_n8_suite(seed=0):
        for k in (2, 3):
            _agrees_with_reference(G, k)


@given(st.integers(0, 14), st.floats(0.1, 0.9), st.integers(0, 2**32), st.integers(1, 4))
def test_search_matches_reference_on_random_graphs(n, p, seed, k):
    _agrees_with_reference(random_graph(n, p, seed=seed), k)


# The exact-certify instances with, per k, the nodes the search and the
# recursive reference enter; the pins catch a bound that prunes less.
CERTIFY = [
    ("c5x6", cons.blow_up(cons.cycle(5), 6), {2: (6044, 357361)}),
    ("c7x4", cons.blow_up(cons.cycle(7), 4), {2: (919, 8757)}),
    ("mycielski-5", mycielski(5), {2: (1086, 28352), 4: (33797, 220476)}),
    ("kneser-7-2", kneser(7, 2), {2: (2809, 148501), 4: (3368, 82068)}),
    ("paley-13", _paley(13), {2: (255, 1282), 3: (588, 2381)}),
    ("paley-17", _paley(17), {2: (2824, 17351), 3: (6208, 69940)}),
]


@pytest.mark.parametrize("name,G,pins", CERTIFY, ids=[c[0] for c in CERTIFY])
def test_search_matches_reference_on_certify_instances(name, G, pins):
    for k, expected in pins.items():
        assert _agrees_with_reference(G, k) == expected


def test_exact_h_splits_components():
    m5, m4 = mycielski(5), mycielski(4)
    union = cons.disjoint_union([m5, m4])
    assert exact_h(union, 3) == min_internal_partition(union, 3)[0]
    assert exact_h(union, 3) == exact_h(m5, 3) + exact_h(m4, 3)
    triangle_plus = build_graph(6, [(1, 3), (3, 5), (1, 5)])
    for k in (1, 2, 3):
        assert exact_h(triangle_plus, k) == min_internal_partition(triangle_plus, k)[0]
    assert exact_h(triangle_plus, 2) == 1
    for G in (cons.disjoint_union([cons.cycle(5), cons.complete(4), cons.petersen()]),
              cons.disjoint_union([cons.blow_up(cons.cycle(5), 2), cons.cycle(7)])):
        for k in (2, 3):
            assert exact_h(G, k) == min_internal_partition(G, k)[0]


def test_exact_h_components_share_one_budget():
    # Petersen has maximum degree 3, so at k = 2 each copy is searched.
    P = cons.petersen()
    one = _branch_and_bound(P, 2, 10**7, 0, twin_classes(P))[2]
    assert one > 0
    pair = cons.disjoint_union([P, P])
    assert exact_h(pair, 2, budget=2 * one) == 6
    with pytest.raises(BudgetExceeded):
        exact_h(pair, 2, budget=2 * one - 1)
    with pytest.raises(BudgetExceeded):
        exact_h(P, 2, budget=one - 1)


def _nested(depth, fn):
    return fn() if depth == 0 else _nested(depth - 1, fn)


def _chorded_cycle(n):
    """C_n plus the chord (0, n // 2): one block of maximum degree 3."""
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


def test_exact_h_answers_under_a_deep_caller_stack():
    # How deep the caller's stack already is must not decide the answer.
    # C_951 is answered in closed form; the chord makes its one block a
    # 951-vertex search, which the budget shows running in full.
    assert _nested(200, lambda: exact_h(cons.cycle(951), 2)) == 1
    G = _chorded_cycle(951)
    one = _branch_and_bound(G, 2, 10**7, 0, twin_classes(G))[2]
    assert _nested(200, lambda: exact_h(G, 2, budget=one)) == 1
    with pytest.raises(BudgetExceeded):
        _nested(200, lambda: exact_h(G, 2, budget=one - 1))


@lru_cache(maxsize=None)
def _all_graphs(n):
    return tuple(enumerate_graphs(n))


_N8 = tuple(G for _, G in random_n8_suite(seed=0))
_PLANT_CAP = 10  # vertices after planting, so exact_h_plain stays fast at k = 3


def _plant_twins(G, sizes, perm):
    """G with vertex v replaced by sizes[v] pairwise non-adjacent copies
    (false twins of each other), relabelled by perm."""
    first = [0]
    for t in sizes:
        first.append(first[-1] + t)
    edges = [
        (perm[first[u] + a], perm[first[w] + b])
        for u, w in G.edges
        for a in range(sizes[u])
        for b in range(sizes[w])
    ]
    return build_graph(first[-1], edges)


@st.composite
def _planted(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        G = _all_graphs(n)[draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1))]
    else:
        G = draw(st.sampled_from(_N8))
    room = _PLANT_CAP - G.n
    sizes = []
    for _ in range(G.n):
        extra = draw(st.integers(0, min(2, room)))
        room -= extra
        sizes.append(1 + extra)
    perm = draw(st.permutations(range(sum(sizes))))
    return _plant_twins(G, sizes, perm)


@given(_planted())
def test_exact_h_on_planted_twin_classes_matches_plain_enumeration(G):
    for k in (2, 3):
        assert exact_h(G, k) == exact_h_plain(G, k)


def test_twin_classes_keep_true_twins_apart():
    assert twin_classes(cons.complete(3)) == [1, 2, 4]
    # C5[2]: five classes of two, all of degree 4, in order of least vertex
    assert twin_classes(cons.blow_up(cons.cycle(5), 2)) == [0b11 << 2 * i for i in range(5)]
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert twin_classes(star) == [0b0001, 0b1110]


def test_exact_h_on_blow_ups_is_t_squared_times_h():
    assert exact_h(cons.blow_up(cons.cycle(7), 50), 2) == 2500
    assert exact_h(cons.blow_up(cons.cycle(5), 6), 3) == 0
    P = _paley(13)
    assert exact_h(cons.blow_up(P, 8), 3) == 64 * exact_h(P, 3) == 320


def test_exact_h_matches_plain_enumeration_on_all_small_graphs():
    for n in range(1, 6):
        for G in _all_graphs(n):
            for k in range(1, 5):
                assert exact_h(G, k) == exact_h_plain(G, k), (G.edges, k)
    for G in _all_graphs(6):
        for k in (2, 3):
            assert exact_h(G, k) == exact_h_plain(G, k), (G.edges, k)


def _exact_h_by_components(G, k):
    """exact_h without the core and block reductions: every connected
    component searched whole over its twin classes."""
    total = nodes = 0
    left = G.full_mask
    while left:
        comp = sum(bfs_layers(G.adj, left & -left, left))  # disjoint layers: sum is OR
        left &= ~comp
        piece = G.induced(comp)[0]
        cost, _, nodes = _branch_and_bound(piece, k, 10**7, nodes, twin_classes(piece))
        total += cost
    return total


_GLUE_CAP = 14


def _glued(seed):
    """Small blocks (cliques, cycles, random pieces) each glued at one
    vertex to what is built so far or started apart, then pendant trees,
    all relabelled at random; at most _GLUE_CAP vertices."""
    rng = random.Random(seed)
    edges, n = [], 0
    while True:
        size = rng.randint(2, 5)
        glue = n > 0 and rng.random() < 0.85
        if n + size - glue > _GLUE_CAP - 2:
            break
        kind = rng.choice(("clique", "cycle", "random"))
        if kind == "clique" or size < 3:
            piece = [(a, b) for a in range(size) for b in range(a + 1, size)]
        elif kind == "cycle":
            piece = [(a, (a + 1) % size) for a in range(size)]
        else:
            piece = [(a, b) for a in range(size) for b in range(a + 1, size) if rng.random() < 0.6]
        label = [rng.randrange(n)] if glue else []
        label += range(n, n + size - len(label))
        n += size - glue
        edges += [(label[a], label[b]) for a, b in piece]
    while n < _GLUE_CAP and rng.random() < 0.75:  # a pendant vertex
        edges.append((rng.randrange(n), n))
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[a], perm[b]) for a, b in edges])


def test_exact_h_on_glued_blocks_matches_the_whole_component_search():
    for seed in range(150):
        G = _glued(seed)
        for k in (1, 2, 3):
            assert exact_h(G, k) == _exact_h_by_components(G, k), (seed, k)


def test_exact_h_closed_forms():
    for t in (1, 2, 8, 14, 300):
        assert exact_h(windmill(t), 2) == t
    for t in (1, 2, 10, 300):
        assert (exact_h(book(t), 2), exact_h(book(t), 3)) == (1, 0)
    for n in [*range(3, 40), 1500, 1501]:
        assert exact_h(cons.cycle(n), 2) == n % 2
    for k in range(1, 5):
        for count in range(1, 6):  # clique i on k*i .. k*i + k, sharing k*i
            cliques = [
                (k * i + a, k * i + b) for i in range(count)
                for a in range(k + 1) for b in range(a + 1, k + 1)
            ]
            assert exact_h(build_graph(k * count + 1, cliques), k) == count


# The scalar search hands the nodes with at most oracle._R classes left to
# oracle._flush, in chunks of oracle._BLOCK // (k * _R); _ALONE = 0 makes it
# do so from the first node.  _R = 0 and _R = inf keep every search scalar.
_SPLITS = [0, 1, 5, float("inf")]
_CHUNKS = [1, 7, oracle._BLOCK]


def _split_ids(p):
    return f"R{p[0]}-block{p[1]}"


def _set_split(monkeypatch, r, block):
    monkeypatch.setattr(oracle, "_R", r)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "_ALONE", 0)


@pytest.fixture(params=[(r, b) for r in _SPLITS for b in _CHUNKS], ids=_split_ids)
def split(request, monkeypatch):
    _set_split(monkeypatch, *request.param)


@lru_cache(maxsize=None)
def _plain_h(G, k):
    return exact_h_plain(G, k)


@lru_cache(maxsize=None)
def _reference_search(G, k):
    return _recursive_min_internal_partition(G, k)[:2]


def _small_and_n8():
    return [G for n in range(1, 6) for G in _all_graphs(n)] + list(_N8)


def test_split_search_values_match_plain_enumeration(split):
    for G in _small_and_n8():
        for k in (1, 2, 3):
            assert exact_h(G, k) == _plain_h(G, k), (G.edges, k)


def test_split_search_blocks_match_the_recursive_reference(split):
    for G in _small_and_n8():
        for k in (1, 2, 3):
            assert _branch_and_bound(G, k, 10**7)[:2] == _reference_search(G, k), (G.edges, k)


# width 1 is held node for node to the scalar search below
@pytest.mark.parametrize("r,block", [(r, b) for r in _SPLITS for b in _CHUNKS[1:]],
                         ids=[_split_ids((r, b)) for r in _SPLITS for b in _CHUNKS[1:]])
def test_split_search_blocks_match_the_reference_on_certify_instances(r, block, monkeypatch):
    _set_split(monkeypatch, r, block)
    for name, G, pins in CERTIFY:
        for k in pins:
            assert _branch_and_bound(G, k, 10**7)[:2] == _reference_search(G, k), (name, k)


@pytest.mark.parametrize("r", _SPLITS[1:])
def test_split_search_at_width_one_enters_the_scalar_search_nodes(r, monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK", 1)
    monkeypatch.setattr(oracle, "_ALONE", 0)
    cases = [(G, k) for G in _small_and_n8() for k in (1, 2, 3)]
    cases += [(G, k) for _, G, pins in CERTIFY for k, (nodes, _) in pins.items() if nodes < 10**4]
    for G, k in cases:
        monkeypatch.setattr(oracle, "_R", 0)
        scalar = _branch_and_bound(G, k, 10**7)
        monkeypatch.setattr(oracle, "_R", r)
        assert _branch_and_bound(G, k, 10**7) == scalar, (G.edges, k)


_STUCK = random_graph(34, 0.5, seed=1)  # exact_h at k = 3 needs far more than 20,000 nodes


def test_kernel_search_over_budget_stays_in_a_few_mib():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"exceeded 20000 nodes \(n=34, k=3\)"):
            exact_h(_STUCK, 3, budget=2 * 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.9 MiB: a frontier of at most _BLOCK // (k * _R) nodes and one
    # tail per level, however many nodes the search enters
    assert peak < 4 * 2**20
