from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete import cover
from kdelete._rng import derive_seed
from kdelete.bounds import E_LOWER
from kdelete.constructions import random_graph
from kdelete.corpus import (
    cover_suite,
    k4_free_suite,
    kneser,
    mycielski,
    random_n8_suite,
    windmill,
)
from kdelete.cover import (
    CoverSelection,
    _edge_arrays,
    _edges_in_neighborhoods,
    _inside_sums,
    _to_limbs,
    _scaled_expectation,
    disjointify,
    even_parts,
    exact_u,
    select_cover,
    select_cover_expectation,
    select_cover_greedy,
    selection_from_centers,
)
from kdelete.errors import InvariantViolation
from kdelete.graphs import Graph, bits_list, build_graph, edges_inside, iter_bits
from kdelete.oracle import enumerate_graphs

random_instances = st.builds(
    random_graph,
    n=st.integers(3, 24),
    p=st.sampled_from([0.15, 0.35, 0.55]),
    seed=st.integers(0, 2**32),
)


def cover_ceiling(n: int, k: int) -> Fraction:
    return Fraction(n * n) / (E_LOWER * k)


@given(random_instances, st.integers(1, 6))
def test_expectation_cover_meets_the_ceiling(G, k):
    sel = select_cover_expectation(G, k).validate(G)
    assert sel.uncovered_edges <= cover_ceiling(G.n, k)


@given(random_instances, st.integers(1, 6))
def test_best_cover_never_worse_than_expectation(G, k):
    best = select_cover(G, k).validate(G)
    exp = select_cover_expectation(G, k)
    assert best.uncovered_edges <= exp.uncovered_edges
    assert best.uncovered_edges <= cover_ceiling(G.n, k)


@given(random_instances, st.integers(1, 6), st.integers(0, 2**32))
def test_random_cover_is_valid(G, k, seed):
    sel = select_cover(G, k, strategy="random", trials=3, seed=seed)
    sel.validate(G)
    assert len(sel.centers) == k


def test_greedy_cover_on_petersen(petersen):
    sel = select_cover_greedy(petersen, 2).validate(petersen)
    # two adjacent centers cover the 5 edges of exact_u
    assert petersen.m - sel.uncovered_edges <= exact_u(petersen, 2) == 5


def test_exact_u_small_values(c5):
    assert exact_u(c5, 1) == 0  # neighborhoods are independent sets
    assert exact_u(c5, 2) == 3  # adjacent centers cover each other
    assert exact_u(cons.complete(4), 1) == 3  # N(v) induces a triangle
    assert exact_u(cons.complete(4), 2) == 6


def test_expectation_cover_refuses_graphs_beyond_the_exact_limb_bound():
    from kdelete.errors import CapabilityError
    from kdelete.graphs import MAX_VERTICES

    with pytest.raises(CapabilityError):
        select_cover_expectation(build_graph(MAX_VERTICES + 1, []), 1)


def test_exact_u_budget():
    from kdelete.errors import CapabilityError

    with pytest.raises(CapabilityError):
        exact_u(random_graph(40, 0.3, seed=1), 5)


@given(random_instances)
def test_disjointify_stays_inside_neighborhoods(G):
    centers = list(range(min(3, G.n)))
    sets = disjointify(G, centers)
    taken = 0
    for v, s in zip(centers, sets):
        assert s & ~G.adj[v] == 0
        assert s & taken == 0
        taken |= s


@given(random_instances)
def test_selection_accounting_matches_union(G):
    sel = selection_from_centers(G, [0, G.n - 1])
    assert sel.uncovered_edges == G.m - edges_inside(G, sel.union)


def test_cover_dedups_nothing_but_guarantee_holds_at_k_above_n():
    G = cons.cycle(4)
    sel = select_cover(G, 8).validate(G)
    assert len(sel.centers) == 8
    assert sel.uncovered_edges == 0


@given(random_instances, st.integers(1, 4))
def test_even_parts_shape(G, t):
    t = min(t, G.n)
    parts = even_parts(G, t)
    sizes = [s.bit_count() for s in parts.disjoint_sets]
    assert len(sizes) == 2 * t
    assert max(sizes) <= G.n // t
    parts.validate(G)


def test_even_parts_rejects_oversized_t():
    with pytest.raises(ValueError):
        even_parts(cons.cycle(4), 5)


def test_unknown_strategy_raises(petersen):
    with pytest.raises(ValueError):
        select_cover(petersen, 2, strategy="annealing")


def test_cover_is_deterministic_per_seed():
    G = random_graph(30, 0.4, seed=derive_seed(0, 0xC0, 1))
    a = select_cover(G, 4, strategy="random", trials=8, seed=11)
    b = select_cover(G, 4, strategy="random", trials=8, seed=11)
    c = select_cover(G, 4, strategy="random", trials=8, seed=12)
    assert a.centers == b.centers
    assert a.uncovered_edges == b.uncovered_edges
    # a different seed may coincide but not on this pinned instance
    assert c.centers != a.centers


# Test-only reference: select_cover_expectation as it was before the
# union-size class counts, copied verbatim but for the two names.  It takes
# one big-int power per edge and walks every active edge's common neighbors
# at every step, so it is slow, but it is the definition the class counts
# must reproduce exactly: same centers, same sets, same uncovered count.
def _scaled_expectation_plain(G: Graph, covered: int, j: int, pair_pow) -> int:
    """E[uncovered edges after j more uniform picks] * n**j, exactly.

    An endpoint x stays uncovered with probability ((n - d(x)) / n)**j if it
    is uncovered now, and an edge survives if either endpoint does, so by
    inclusion-exclusion the scaled expectation is

        sum_{x uncovered} d(x) * (n - d(x))**j
        - sum_{edges with both endpoints uncovered} (n - u_e)**j

    with u_e = |N(x) | N(y)|.  pair_pow maps an edge index to (n - u_e)**j.
    """
    n = G.n
    total = 0
    for x in range(n):
        if not (covered >> x & 1):
            d = G.degree(x)
            total += d * (n - d) ** j
    for idx, (x, y) in enumerate(G.edges):
        if not (covered >> x & 1) and not (covered >> y & 1):
            total -= pair_pow(idx)
    return total


def select_cover_expectation_plain(G: Graph, k: int) -> CoverSelection:
    """Derandomized uniform draw: uncovered_edges <= n^2/(e*k) on every run.

    Maintains the conditional expectation of the final uncovered count and, at
    each step, picks the lowest-indexed center that does not increase it.  The
    average over all n candidate centers equals the current expectation, so
    such a center always exists; at j = 0 the expectation *is* the uncovered
    count, which is therefore bounded by the initial expectation n^2/(e*k).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if G.n == 0:
        raise ValueError("cannot select centers in an empty graph")
    n = G.n
    union_size = [0] * G.m
    for idx, (x, y) in enumerate(G.edges):
        union_size[idx] = (G.adj[x] | G.adj[y]).bit_count()
    degs = [G.degree(v) for v in range(n)]

    covered = 0
    centers: list[int] = []
    for step in range(k):
        j = k - step - 1
        # Weights at the exponent for *after* this pick.
        w_vertex = [degs[x] * (n - degs[x]) ** j for x in range(n)]
        w_edge = [(n - u) ** j for u in union_size]

        # Active edges: both endpoints currently uncovered.
        s1 = 0
        for x in range(n):
            if not (covered >> x & 1):
                s1 += w_vertex[x]
        s2 = 0
        incident = [0] * n  # sum of active-edge weights at each endpoint
        pair_bonus = [0] * n  # weight of active edges inside N(v), per v
        for idx, (x, y) in enumerate(G.edges):
            if (covered >> x & 1) or (covered >> y & 1):
                continue
            w = w_edge[idx]
            s2 += w
            incident[x] += w
            incident[y] += w
            both = G.adj[x] & G.adj[y]
            if both:
                for v in iter_bits(both):
                    pair_bonus[v] += w

        # Previous-state expectation, scaled by n**(j+1).
        prev = _scaled_expectation_plain(
            G, covered, j + 1, lambda i: (n - union_size[i]) ** (j + 1)
        )

        best_v = -1
        best_val = None
        for v in range(n):
            fresh = G.adj[v] & ~covered
            drop1 = 0
            drop_inc = 0
            for u in iter_bits(fresh):
                drop1 += w_vertex[u]
                drop_inc += incident[u]
            # Edges with both endpoints in `fresh` were subtracted twice.
            val = (s1 - drop1) - (s2 - drop_inc + pair_bonus[v])
            if best_val is None or val < best_val:
                best_val = val
                best_v = v
        assert best_val is not None
        if best_val * n > prev:
            raise InvariantViolation(
                "conditional expectation increased; selection logic is broken"
            )
        centers.append(best_v)
        covered |= G.adj[best_v]

    sel = selection_from_centers(G, centers)
    if Fraction(sel.uncovered_edges) * E_LOWER * k > n * n:
        raise InvariantViolation(
            f"derandomized cover left {sel.uncovered_edges} edges uncovered, "
            f"above n^2/(e*k) with n={n}, k={k}"
        )
    return sel


def assert_matches_plain(G: Graph, k: int) -> None:
    got = select_cover_expectation(G, k)
    want = select_cover_expectation_plain(G, k)
    assert got.centers == want.centers
    assert got.disjoint_sets == want.disjoint_sets
    assert got.uncovered_edges == want.uncovered_edges


@given(random_instances, st.integers(1, 30))
def test_expectation_cover_matches_plain_reference(G, k):
    # Up to k = 30 the powers run past 64 bits, so the limb sums carry and
    # borrow across several 32-bit limbs.
    assert_matches_plain(G, k)


PALEY_13 = cons.circulant(13, [1, 3, 4])


@pytest.mark.parametrize(
    "G, k",
    [
        (cons.complete_multipartite([20] * 3), 4),
        (cons.complete_multipartite([20] * 3), 8),
        (PALEY_13, 3),
        (PALEY_13, 6),
        (cons.blow_up(PALEY_13, 3), 4),
    ],
    ids=["tripartite-20-k4", "tripartite-20-k8", "paley13-k3", "paley13-k6",
         "paley13-blowup3-k4"],
)
def test_expectation_cover_matches_plain_on_fixed_graphs(G, k):
    assert_matches_plain(G, k)


K4_FREE = k4_free_suite()


@pytest.mark.parametrize("G", [G for _, G in K4_FREE], ids=[name for name, _ in K4_FREE])
def test_expectation_cover_matches_plain_on_k4_free_suite(G):
    assert_matches_plain(G, 4)


def _with_isolated(G: Graph, extra: int) -> Graph:
    return build_graph(G.n + extra, G.edges)


@pytest.mark.parametrize(
    "G, k",
    [
        # Every edge of a complete multipartite graph has u_e = n, so its
        # weight (n - u_e)**j is 0 at every j > 0.
        (cons.complete_multipartite([3, 3, 3]), 2),
        (cons.complete_multipartite([3, 3, 3]), 5),
        (cons.complete_multipartite([4, 3, 2, 1]), 6),
        (cons.complete_multipartite([1, 1, 1, 1, 1]), 3),
        (cons.complete_multipartite([6, 6]), 4),
        (build_graph(1, []), 1),
        (build_graph(1, []), 4),
        (build_graph(9, []), 5),
        (_with_isolated(random_graph(12, 0.4, seed=2), 5), 7),
        (_with_isolated(cons.complete(4), 3), 3),
    ]
    + [
        # n around the byte and the 64-bit word boundaries of the bit rows
        (random_graph(n, p, seed=n), k)
        for n in (1, 7, 8, 9, 17, 33)
        for p in (0.3, 0.7)
        for k in sorted({1, 3, n})
    ]
    + [(random_graph(40, 0.2, seed=5), 39), (random_graph(40, 0.5, seed=6), 39)],
)
def test_expectation_cover_matches_plain_on_edge_cases(G, k):
    assert_matches_plain(G, k)


def test_expectation_cover_matches_plain_on_cover_suite():
    for name, G in cover_suite():
        for k in (1, 3, 6):
            assert_matches_plain(G, k)


def uncovered_after(G: Graph, centers) -> int:
    union = 0
    for v in centers:
        union |= G.adj[v]
    return sum(1 for x, y in G.edges if not (union >> x & 1 and union >> y & 1))


def test_scaled_expectation_is_the_sum_over_all_center_tuples():
    """n**j * E[uncovered] equals the uncovered count summed over all n**j
    tuples of further centers, on every labeled graph with n <= 5."""
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            for prefix in ((), (0,), (n - 1,)):
                covered = 0
                for v in prefix:
                    covered |= G.adj[v]
                degree_counts = Counter(
                    G.degree(x) for x in range(n) if not covered >> x & 1
                )
                union_counts = Counter(
                    (G.adj[x] | G.adj[y]).bit_count()
                    for x, y in G.edges
                    if not (covered >> x & 1 or covered >> y & 1)
                )
                for j in range(3):
                    brute = sum(
                        uncovered_after(G, prefix + more)
                        for more in product(range(n), repeat=j)
                    )
                    assert _scaled_expectation(n, degree_counts, union_counts, j) == brute


def _reference_greedy(G: Graph, k: int) -> CoverSelection:
    """select_cover_greedy as it was before the edge arrays, verbatim but for
    its name: a test-only reference for the differential tests below."""
    if k < 1:
        raise ValueError("k must be positive")
    if G.n == 0:
        raise ValueError("cannot select centers in an empty graph")
    union = 0
    centers = []
    for _ in range(k):
        into_union = [(a & union).bit_count() for a in G.adj]
        best_v = 0
        best_gain = -1
        for v in range(G.n):
            fresh = G.adj[v] & ~union
            to_union = 0
            inside = 0
            for w in iter_bits(fresh):
                to_union += into_union[w]
                inside += (G.adj[w] & fresh).bit_count()
            gain = to_union + inside // 2
            if gain > best_gain:
                best_gain = gain
                best_v = v
        centers.append(best_v)
        union |= G.adj[best_v]
    return selection_from_centers(G, centers)


def test_greedy_cover_matches_reference_on_all_small_graphs():
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            for k in range(1, 5):
                assert select_cover_greedy(G, k) == _reference_greedy(G, k)


@given(random_instances, st.integers(1, 8))
def test_greedy_cover_matches_reference_on_random_graphs(G, k):
    assert select_cover_greedy(G, k) == _reference_greedy(G, k)


def test_greedy_cover_matches_reference_on_random_n8_suite():
    for _, G in random_n8_suite():
        for k in range(1, 9):
            assert select_cover_greedy(G, k) == _reference_greedy(G, k)


@pytest.mark.parametrize(
    "G",
    [cons.complete_multipartite([8, 8, 8]), mycielski(5), kneser(7, 2), windmill(7),
     cons.disjoint_union([cons.complete(5), cons.complete(5)]),
     random_graph(16, 0.6, seed=4), random_graph(15, 0.35, seed=29),
     random_graph(18, 0.15, seed=13)],
    # In 2K5 the second center is chosen by the inside term alone.  On the
    # last two the third center is wrong if the inside counts keep the edges
    # the union has reached.
    ids=["k888", "mycielski5", "kneser7-2", "windmill7", "2k5", "random16",
         "random15", "random18"],
)
def test_greedy_cover_matches_reference_with_and_without_triangles(G):
    for k in range(1, 9):
        assert select_cover_greedy(G, k) == _reference_greedy(G, k)
        assert select_cover(G, k) == min(
            select_cover_expectation(G, k), _reference_greedy(G, k),
            key=lambda sel: sel.uncovered_edges,
        )


def _check_edge_arrays(G: Graph) -> None:
    a = _edge_arrays(G, 1)
    assert a.degree.tolist() == [G.degree(v) for v in range(G.n)]
    assert list(zip(a.ex.tolist(), a.ey.tolist())) == list(G.edges)
    assert a.union_size.tolist() == [
        (G.adj[x] | G.adj[y]).bit_count() for x, y in G.edges
    ]
    assert a.common.tolist() == [(G.adj[x] & G.adj[y]).bit_count() for x, y in G.edges]
    # e(G[N(v)]), the greedy selector's first inside counts, edge by edge
    assert _edges_in_neighborhoods(a).tolist() == _inside_reference(G, [1] * G.m)
    shared = [bool(G.adj[x] & G.adj[y]) for x, y in G.edges]
    assert a.shared.tolist() == shared
    assert (a.packed is None) == (not any(shared))
    for v in range(G.n):
        assert a.src[a.start[v] : a.start[v + 1]].tolist() == [v] * G.degree(v)
        assert sorted(a.dst[a.start[v] : a.start[v + 1]].tolist()) == bits_list(G.adj[v])
    for x, y, e in zip(a.src.tolist(), a.dst.tolist(), a.edge_of.tolist()):
        assert G.edges[e] == (min(x, y), max(x, y))


def test_edge_arrays_match_per_edge_bit_counts_on_all_small_graphs():
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            _check_edge_arrays(G)


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_edge_arrays_match_per_edge_bit_counts_on_random_graphs(n):
    for p in (0.1, 0.3, 0.6, 0.9):
        for seed in range(3):
            _check_edge_arrays(random_graph(n, p, seed=seed))


def test_edge_arrays_count_more_than_255_common_neighbours():
    # the edge between the two singleton parts has 270 common neighbours
    _check_edge_arrays(cons.complete_multipartite([1, 1, 270]))


@given(random_instances)
def test_edge_arrays_match_per_edge_bit_counts_on_hypothesis_graphs(G):
    _check_edge_arrays(G)


@pytest.mark.parametrize(
    "G",
    [cons.complete_multipartite([20] * 3), windmill(7), dict(K4_FREE)["tripartite-100"]],
    ids=["k20-20-20", "windmill7", "tripartite-100"],
)
def test_edge_arrays_match_per_edge_bit_counts_on_triangle_rich_graphs(G):
    _check_edge_arrays(G)


def _inside_reference(G: Graph, weights: list[int]) -> list[int]:
    """Per vertex v, the weights of the edges with v adjacent to both ends,
    one bit at a time."""
    out = [0] * G.n
    for (x, y), w in zip(G.edges, weights):
        for v in iter_bits(G.adj[x] & G.adj[y]):
            out[v] += w
    return out


@pytest.mark.parametrize(
    "G",
    [cons.complete(60), cons.complete_multipartite([30] * 3),
     random_graph(33, 0.6, seed=8), windmill(9),
     cons.disjoint_union([windmill(4), cons.cycle(5), build_graph(2, [])])],
    ids=["k60", "k30-30-30", "random33", "windmill9", "windmill4-c5-isolated"],
)
def test_inside_sums_match_bit_loop_at_full_limbs(G):
    """Limbs at 2**32 - 1 put 255 in every byte the float32 block sums
    take; every vertex's row, zero rows included, must equal the Python-int
    reference exactly."""
    values = [2**64 - 1, 2**32 - 1, 2**32, 1, 0, 0xFFFF_0000_FFFF]
    edge_value = [values[i % len(values)] for i in range(G.m)]
    a = _edge_arrays(G, 1)
    index = np.arange(G.m) % len(values)
    sums = _inside_sums(a.packed, a.ex, a.ey, index, _to_limbs(values, 2))
    assert sums.shape == (G.n, 2)
    got = [sum(c << (32 * b) for b, c in enumerate(row)) for row in sums.tolist()]
    assert got == _inside_reference(G, edge_value)


def test_greedy_cover_first_inside_counts_unpack_no_bit_rows(monkeypatch):
    """The first inside counts come from the common counts per edge; on
    K_{20,20,20} one center covers every vertex, so no recount follows and
    _inside_sums is never called."""
    G = cons.complete_multipartite([20, 20, 20])
    calls = []

    def spy(packed, xs, ys, index, table):
        calls.append(len(xs))
        return _inside_sums(packed, xs, ys, index, table)

    monkeypatch.setattr(cover, "_inside_sums", spy)
    assert select_cover_greedy(G, 1) == _reference_greedy(G, 1)
    assert calls == []


def test_greedy_cover_stops_once_the_union_holds_every_vertex(monkeypatch):
    """On K_{20,20} two centers cover every vertex; after that every gain is
    0 and the remaining centers are vertex 0, with no further bincount
    passes over the directed edges."""
    G = cons.complete_multipartite([20, 20])
    arrays = _edge_arrays(G, 30)
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def bincount(*args, **kwargs):
            calls.append(None)
            return np.bincount(*args, **kwargs)

    monkeypatch.setattr(cover, "np", CountingNumpy())
    sel = select_cover_greedy(G, 30, arrays)
    assert sel == _reference_greedy(G, 30)
    assert sel.centers == (0, 20) + (0,) * 28
    assert len(calls) <= 2 * 2


@pytest.mark.parametrize("block", [1, 7, 64])
def test_selectors_match_references_across_block_boundaries(monkeypatch, block):
    """A _BLOCK this small splits keys between the blocks of _sum_sorted and
    runs the multi-block paths of _inside_sums and _edge_arrays; large k
    makes the limb rows long, so the blocks hold few entries each."""
    monkeypatch.setattr(cover, "_BLOCK", block)
    graphs = [random_graph(10, 0.5, seed=1), random_graph(14, 0.3, seed=2),
              random_graph(17, 0.6, seed=3), mycielski(4)]
    for G in graphs:
        for k in sorted({1, 4, G.n // 2, G.n, 2 * G.n}):
            assert select_cover_greedy(G, k) == _reference_greedy(G, k)
            assert_matches_plain(G, k)
