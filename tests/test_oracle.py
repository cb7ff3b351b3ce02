import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete.constructions import random_graph
from kdelete.errors import BudgetExceeded, CapabilityError
from kdelete.oracle import (
    canonical_code,
    enumerate_graphs,
    exact_h,
    exact_h_plain,
    is_k_colorable,
    mantel_worst_uncovered,
    min_internal_partition,
    min_uncovered_single,
)

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
    for n in (2, 3, 4, 5):
        worst, witness = mantel_worst_uncovered(n)
        assert worst == n * n // 4
        # the witness is a real graph attaining the value
        from kdelete.graphs import build_graph

        G = build_graph(n, list(witness))
        assert min_uncovered_single(G) == worst


def test_duality_on_small_graphs(small_random_graphs):
    from kdelete.maxcut import max_k_cut_exact

    for G in small_random_graphs[:8]:
        if G.n <= 9:
            for k in (2, 3):
                assert exact_h(G, k) == G.m - max_k_cut_exact(G, k).crossing
