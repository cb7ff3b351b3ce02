from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete.bounds import E_LOWER
from kdelete.cliquefree import (
    partition_clique_free,
    partition_triangle_free,
    partition_wheel_free,
    verify_clique_free,
    verify_wheel_free,
)
from kdelete.constructions import random_graph
from kdelete.errors import (
    CapabilityError,
    CliqueFound,
    TriangleFound,
    WheelFound,
)
from kdelete.graphs import contains_clique, find_cycle_of_length
from kdelete.oracle import exact_h


def theorem_ceiling(n: int, k: int, r: int) -> Fraction:
    # (5/3) 4^(r-3) n^2 / k^((r-1)/(r-2)) compared in the exact power form
    return Fraction(5 * 4 ** (r - 3), 3) * n * n


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_triangle_free_bound_on_petersen(petersen, k):
    rep = partition_triangle_free(petersen, k, verify=True)
    assert rep.guarantee_holds
    assert rep.bound == Fraction(100) / (E_LOWER * k * k)
    assert rep.deleted >= exact_h(petersen, k)


def test_triangle_free_rejects_triangles():
    with pytest.raises(TriangleFound):
        partition_triangle_free(cons.complete(3), 2, verify=True)


@given(st.integers(0, 2**32), st.integers(2, 5))
@settings(max_examples=25)
def test_triangle_free_on_scrubbed_randoms(seed, k):
    from kdelete.oddgirth import scrub_short_odd_cycles

    G = scrub_short_odd_cycles(random_graph(18, 0.35, seed=seed), 2).graph
    rep = partition_triangle_free(G, k, verify=True)
    assert rep.guarantee_holds
    assert rep.deleted * k * k * E_LOWER <= G.n * G.n


@pytest.mark.parametrize("k", [66, 128, 256])
def test_clique_free_theorem_branch(k):
    G = cons.blow_up(cons.cycle(5), 40)  # n=200, K4-free
    rep = partition_clique_free(G, k, 4, verify=True)
    assert rep.guarantee_holds
    # exact rational form: deleted^2 * k^3 <= ((5/3)*4*n^2)^2
    c = Fraction(20, 3) * G.n**2
    assert Fraction(rep.deleted) ** 2 * k**3 <= c**2


@pytest.mark.parametrize("k", [2, 7, 30, 64])
def test_clique_free_fallback_branch(k):
    G = cons.complete_multipartite([15, 15, 15])
    rep = partition_clique_free(G, k, 4)
    assert rep.guarantee_holds
    assert rep.deleted * 2 * k <= G.n**2


def test_clique_free_r3_delegates_to_triangle_free(petersen):
    a = partition_clique_free(petersen, 2, 3)
    b = partition_triangle_free(petersen, 2)
    assert a.deleted == b.deleted
    assert a.bound == b.bound


def test_clique_free_rejects_out_of_range_r(petersen):
    with pytest.raises(CapabilityError):
        partition_clique_free(petersen, 2, 2)
    with pytest.raises(CapabilityError):
        partition_clique_free(petersen, 2, 9)


def test_verify_clique_free_finds_planted_clique():
    G = cons.complete(6)
    with pytest.raises(CliqueFound) as exc:
        verify_clique_free(G, 5)
    assert len(exc.value.witness) == 5
    verify_clique_free(cons.complete_bipartite(4, 4), 3)  # no triangle


def test_recursion_preserves_clique_freeness():
    """Neighborhood pieces of a K_r-free graph are K_{r-1}-free; the divide
    step depends on it, so spot-check on the actual chunks."""
    from kdelete.cover import even_parts

    G = cons.complete_multipartite([12, 12, 12])  # K4-free
    parts = even_parts(G, 4)
    for piece in parts.disjoint_sets:
        if piece:
            H, _ = G.induced(piece)
            assert not contains_clique(H, 3)


def test_clique_r5_on_4partite():
    G = cons.complete_multipartite([10, 10, 10, 10])  # K5-free, n=40
    rep = partition_clique_free(G, 1010, 5)  # > (2*5)^3 = 1000, and > n
    assert rep.guarantee_holds
    rep2 = partition_clique_free(G, 20, 5)
    assert rep2.guarantee_holds
    assert not contains_clique(G, 5)


def test_soundness_against_oracle_small():
    G = random_graph(9, 0.4, seed=17)
    from kdelete.oddgirth import scrub_short_odd_cycles

    T = scrub_short_odd_cycles(G, 2).graph  # triangle-free now
    for k in (2, 3):
        rep = partition_triangle_free(T, k)
        assert rep.deleted >= exact_h(T, k)


# --- odd wheels -------------------------------------------------------------


def test_verify_wheel_free_finds_hub():
    # W_5: hub 0 over the 5-cycle 1..5
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    edges += [(0, i) for i in range(1, 6)]
    from kdelete.graphs import build_graph

    G = build_graph(6, edges)
    with pytest.raises(WheelFound) as exc:
        verify_wheel_free(G, 2)
    hub, rim = exc.value.witness
    assert hub == 0 and len(rim) == 5
    verify_wheel_free(G, 1)  # no K4 inside W_5
    verify_wheel_free(cons.petersen(), 2)


def test_even_wheels_are_not_caught():
    """The odd-wheel search must ignore even wheels: W_4 contains no K_4 and,
    although hub+rim-path forms a C5, no vertex hubs that C5."""
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    edges += [(0, i) for i in range(1, 5)]
    from kdelete.graphs import build_graph

    W4 = build_graph(5, edges)
    verify_wheel_free(W4, 1)  # K4-free
    verify_wheel_free(W4, 2)  # C5 exists but nothing is joined to all of it
    assert find_cycle_of_length(W4, 5) is not None


@pytest.mark.parametrize("r", [2, 3, 4])
def test_even_wheel_sandwich_ingredients(r):
    """Even wheels contain a triangle yet are 3-chromatic, which pins the
    deletion problem for them between the triangle-free answers: every
    triangle-free graph is W_{2r}-free, and 3-colorability caps the excess."""
    from kdelete.graphs import build_graph
    from kdelete.oracle import is_k_colorable

    rim = 2 * r
    edges = [(i, i % rim + 1) for i in range(1, rim + 1)]
    edges += [(0, i) for i in range(1, rim + 1)]
    W = build_graph(rim + 1, edges)
    assert contains_clique(W, 3)
    assert is_k_colorable(W, 3) and not is_k_colorable(W, 2)
    # odd wheels contrast: rim needs three colors, the hub a fourth
    rim += 1
    edges = [(i, i % rim + 1) for i in range(1, rim + 1)]
    edges += [(0, i) for i in range(1, rim + 1)]
    W_odd = build_graph(rim + 1, edges)
    assert not is_k_colorable(W_odd, 3)


@pytest.mark.parametrize("k", [1, 2, 5, 9, 40])
def test_wheel_free_bound(petersen, k):
    rep = partition_wheel_free(petersen, k, 2, verify=True)
    assert rep.guarantee_holds
    assert rep.deleted >= exact_h(petersen, k) if k <= 3 else True


def test_wheel_free_k4_case():
    G = cons.complete_bipartite(7, 7)  # K4-free, wheel-free for r=1
    rep = partition_wheel_free(G, 4, 1, verify=True)
    assert rep.guarantee_holds


def test_wheel_free_rejects_planted_wheel():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    edges += [(0, i) for i in range(1, 6)]
    from kdelete.graphs import build_graph

    G = build_graph(6, edges)
    with pytest.raises(WheelFound):
        partition_wheel_free(G, 2, 2, verify=True)
