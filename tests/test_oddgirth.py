import random
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete import oddgirth, verify
from kdelete.bounds import decay_step_holds
from kdelete.constructions import random_graph
from kdelete.corpus import book, c5_free_scrub_suite, kneser, windmill
from kdelete.errors import (
    CapabilityError,
    EmptyWorkingSet,
    ForbiddenCyclePresent,
    OddGirthTooSmall,
)
from kdelete.graphs import (
    _CYCLE_LIMIT,
    Graph,
    build_graph,
    degree_sum,
    edges_inside,
    find_cycle_of_length,
    iter_bits,
    odd_girth,
)
from kdelete.oddgirth import (
    ScrubReport,
    _center_masses,
    extract_independent_set,
    find_poor_expansion_set,
    partition_odd_cycle_free,
    partition_odd_girth,
    scrub_short_odd_cycles,
)
from kdelete.oracle import enumerate_graphs, exact_h

any_graph = st.builds(
    random_graph,
    n=st.integers(2, 14),
    p=st.sampled_from([0.2, 0.4, 0.7]),
    seed=st.integers(0, 2**32),
)


@given(any_graph, st.integers(1, 3))
def test_expansion_witness_holds_on_any_graph(G, r):
    """The poor-expansion set is a theorem about every graph, not only
    those with large odd girth: g <= 0 or g^r D(S) <= D(B)^r |S| n."""
    smask = G.full_mask
    if degree_sum(G, smask) == 0:
        with pytest.raises(EmptyWorkingSet):
            find_poor_expansion_set(G, smask, r)
        return
    w = find_poor_expansion_set(G, smask, r)
    assert w.holds(G.n)
    assert w.bmask and (w.bmask & ~smask) == 0


@given(any_graph, st.integers(1, 3), st.integers(0, 2**20))
def test_expansion_witness_on_sub_working_sets(G, r, bits):
    smask = G.full_mask & bits
    if smask == 0 or degree_sum(G, smask) == 0:
        return
    w = find_poor_expansion_set(G, smask, r)
    assert w.holds(G.n)
    assert w.bmask & ~smask == 0


def _reference_masses(G, smask):
    return [degree_sum(G, G.adj[v] & smask) for v in range(G.n)]


@given(
    st.builds(
        random_graph,
        n=st.integers(1, 40),
        p=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
        seed=st.integers(0, 2**32),
    ),
    st.integers(1, 3),
    st.data(),
)
def test_center_is_the_first_heaviest_vertex_of_all_of_v(G, r, data):
    """The center is the lowest-index maximiser of D(N(v) cap S) over every
    v in V, inside S or not, as a strict `>` scan from v = 0 picks it."""
    smask = data.draw(st.integers(0, G.full_mask), label="smask")
    masses = _reference_masses(G, smask)
    assert _center_masses(G, smask).tolist() == masses
    if degree_sum(G, smask) == 0:
        with pytest.raises(EmptyWorkingSet):
            find_poor_expansion_set(G, smask, r)
        return
    assert find_poor_expansion_set(G, smask, r).center == masses.index(max(masses))


def test_center_ties_go_to_the_lowest_index():
    C9 = cons.cycle(9)
    assert find_poor_expansion_set(C9, C9.full_mask, 2).center == 0  # every mass is 4
    # A star on 0 with two pendant paths: vertex 0 alone has the top degree 4.
    G = build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6)])
    without_0 = G.full_mask & ~1
    assert _reference_masses(G, without_0) == [6, 1, 1, 0, 0, 2, 2]
    assert find_poor_expansion_set(G, without_0, 2).center == 0  # outside S
    # S = {5, 6}: vertices 1 and 2 tie at mass 1, everything else is 0.
    assert _reference_masses(G, 0b1100000) == [0, 1, 1, 0, 0, 0, 0]
    assert find_poor_expansion_set(G, 0b1100000, 2).center == 1
    with pytest.raises(ValueError, match="vertex mask out of range"):
        find_poor_expansion_set(G, 1 << 7, 2)


@pytest.mark.parametrize("make", [lambda: random_graph(300, 0.9), lambda: kneser(11, 5)],
                         ids=["random-300-0.9", "odd-graph-5"])
def test_center_masses_are_exact_int64(make):
    G = make()
    for smask in (G.full_mask, G.full_mask // 3, 1):
        masses = _center_masses(G, smask)
        assert masses.dtype == np.int64
        assert masses.tolist() == _reference_masses(G, smask)


def test_peeling_a_long_cycle_scores_centers_in_one_pass(monkeypatch):
    """C_2001 takes 817 peels.  A degree_sum call per candidate center would
    make 1.64 million calls and take seconds; one pass per peel makes a few."""
    calls = 0

    def counting(G, S):
        nonlocal calls
        calls += 1
        return degree_sum(G, S)

    monkeypatch.setattr(oddgirth, "degree_sum", counting)
    rep = partition_odd_girth(cons.cycle(2001), 4, 2, verify=True)
    assert rep.deleted == 0
    assert rep.meta["peel_rounds"] == 817
    assert rep.guarantee_holds
    assert calls < 20 * 817


@given(any_graph, st.integers(1, 3))
def test_extraction_mass_inequality_is_universal(G, r):
    """(8 D(A))^r |S| n >= D(S)^(r+1) holds with no girth hypothesis."""
    smask = G.full_mask
    if degree_sum(G, smask) == 0:
        return
    res = extract_independent_set(G, smask, r)
    assert res.holds(G.n)
    assert res.amask and res.amask & ~smask == 0


@given(st.integers(1, 6), st.integers(1, 3))
def test_extraction_independent_under_odd_girth(t, r):
    """With odd girth > 2r+1 the extracted set is independent."""
    G = cons.blow_up(cons.cycle(2 * r + 3), t)
    assert odd_girth(G) == 2 * r + 3 > 2 * r + 1
    res = extract_independent_set(G, G.full_mask, r)
    assert edges_inside(G, res.amask) == 0


def test_extraction_on_bipartite_is_independent():
    G = cons.complete_bipartite(6, 9)
    for r in (1, 2, 3):
        res = extract_independent_set(G, G.full_mask, r)
        assert edges_inside(G, res.amask) == 0


@pytest.mark.parametrize("t,k", [(2, 2), (3, 4), (5, 8), (4, 3)])
def test_partition_odd_girth_bound_and_trajectory(t, k):
    G = cons.blow_up(cons.cycle(7), t)
    rep = partition_odd_girth(G, k, 2, verify=True)
    assert rep.guarantee_holds
    n = G.n
    assert rep.bound == Fraction(4 * 24**2 * n * n, k**3)
    traj = rep.meta["trajectory"]
    assert all(
        decay_step_holds(traj[i], traj[i + 1], n, 2) for i in range(len(traj) - 1)
    )
    # greedy leftover: added edges at most D(S_final)/k
    assert rep.meta["added"] * k <= traj[-1]


def test_partition_odd_girth_trivial_when_k_large(c5):
    rep = partition_odd_girth(c5, 7, 1)
    assert rep.deleted == 0
    assert rep.partition.k == 7


def test_partition_odd_girth_rejects_short_cycles():
    with pytest.raises(OddGirthTooSmall, match=r"^odd girth 5 is not above 7$") as info:
        partition_odd_girth(cons.cycle(5), 2, 3, verify=True)  # needs girth > 7
    assert info.value.witness == 5


@pytest.mark.parametrize("limit", [1, 3, 5, 7, 9])
def test_bounded_odd_girth_is_exact_up_to_its_limit(limit):
    for G in [*(cons.cycle(n) for n in range(3, 14)), cons.blow_up(cons.cycle(7), 3),
              cons.complete(4), cons.hypercube(3), cons.petersen(), *(windmill(t) for t in (1, 4))]:
        full, got = odd_girth(G), odd_girth(G, limit)
        assert got == full if full <= limit else limit < got <= full, (G, limit)
    assert odd_girth(cons.cycle(4001), 5) == 7  # two depths, not 2000


def test_girth_checks_search_only_up_to_2r_plus_1(monkeypatch):
    limits = []

    def spy(G, limit=float("inf")):
        limits.append(limit)
        return odd_girth(G, limit)

    monkeypatch.setattr(oddgirth, "odd_girth", spy)
    monkeypatch.setattr(verify, "odd_girth", spy)
    partition_odd_girth(cons.cycle(11), 2, 2, verify=True)
    verify._scrubber(*c5_free_scrub_suite()[0], 3)
    # the check at 2r + 1 = 5, then the r = 3 scrub's test before length 5,
    # the check at 7, and the scrub inside partition_odd_cycle_free
    assert limits == [5, 5, 7, 5]


@given(any_graph, st.integers(1, 3))
@settings(max_examples=30)
def test_scrub_removes_all_short_odd_cycles(G, r):
    rep = scrub_short_odd_cycles(G, r)
    assert odd_girth(rep.graph) >= 2 * r + 1
    assert rep.graph.m == G.m - rep.removed
    assert len(rep.removed_edges) == rep.removed
    # cycles are whole and lengths only increase
    lens = [len(c) for c in rep.cycles]
    assert lens == sorted(lens)
    assert sum(lens) == rep.removed


def test_scrub_is_identity_at_r1(petersen):
    rep = scrub_short_odd_cycles(petersen, 1)
    assert rep.removed == 0 and rep.graph.m == petersen.m


def test_scrub_bound_on_c5_free_graphs():
    from kdelete.corpus import book, windmill

    for G in (windmill(25), book(40), cons.complete(4)):
        rep = scrub_short_odd_cycles(G, 2)
        assert rep.holds(G.n)
        assert odd_girth(rep.graph) > 5  # no C5 to begin with


@pytest.mark.parametrize("k", [2, 4, 8])
def test_partition_odd_cycle_free(k):
    from kdelete.corpus import windmill

    G = windmill(30)  # triangles but no C5
    rep = partition_odd_cycle_free(G, k, 2, verify=True)
    assert rep.guarantee_holds
    assert rep.deleted == rep.meta["scrub"]["removed"] + rep.meta["inner_deleted"]


def test_partition_odd_cycle_free_is_optimal_on_c7x50():
    # C7[50] has no C5; the oracle's 2,500 is 50^2 h(C7, 2), so the
    # partitioner's deletions there are the minimum.
    G = cons.blow_up(cons.cycle(7), 50)
    rep = partition_odd_cycle_free(G, 2, 2)
    assert rep.deleted == exact_h(G, 2) == 2500


def test_partition_odd_cycle_free_rejects_c5(petersen):
    with pytest.raises(ForbiddenCyclePresent):
        partition_odd_cycle_free(petersen, 2, 2, verify=True)


def test_partition_odd_cycle_free_handles_triangles_silently():
    # r=2 scrubs triangles; K4 is all triangles
    rep = partition_odd_cycle_free(cons.complete(4), 2, 2)
    assert rep.guarantee_holds
    assert odd_girth(cons.complete(4)) == 3


def test_deleted_dominates_internal_count_on_the_input():
    """Every internal edge of the final partition was either scrubbed or is
    internal in the scrubbed graph, so deleted covers the real repair cost."""
    from kdelete.corpus import windmill

    G = windmill(12)
    rep = partition_odd_cycle_free(G, 3, 2)
    assert rep.deleted >= rep.partition.internal_count(G)


# Test-only reference: find_cycle_of_length and scrub_short_odd_cycles as
# they were before the bitmask triangle finder and the in-place scrub,
# copied verbatim but for their names.  The scrub rebuilds the graph after
# every cycle and restarts the search at anchor 0, so it is slow, but it is
# the definition the new code must reproduce exactly: same cycles in the
# same order, same removed edges, same scrubbed graph.
def find_cycle_of_length_plain(G: Graph, length: int) -> Optional[tuple[int, ...]]:
    """First cycle on exactly `length` vertices under lowest-index DFS order.

    Anchored at each start vertex s in turn; only vertices above s may appear,
    so s is the least vertex of the returned cycle.  A partial path is pruned
    when the BFS distance back to s exceeds the remaining step budget.
    Returns None when no such cycle exists (in particular when length > n).
    """
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    if length > _CYCLE_LIMIT:
        raise CapabilityError(f"cycle search supports length <= {_CYCLE_LIMIT}, got {length}")
    if length > G.n:
        return None
    for s in range(G.n):
        region = G.full_mask & ~((1 << s) - 1)
        # BFS distances from s within the region
        dist = [-1] * G.n
        dist[s] = 0
        frontier = 1 << s
        seen = frontier
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= G.adj[u]
            nxt &= region & ~seen
            for u in iter_bits(nxt):
                dist[u] = d
            seen |= nxt
            frontier = nxt

        path = [s]

        def dfs(u: int, used: int, count: int) -> Optional[tuple[int, ...]]:
            if count == length:
                if G.adj[u] >> s & 1 and path[1] < path[-1]:
                    return tuple(path)
                return None
            budget = length - count
            for w in iter_bits(G.adj[u] & region & ~used):
                if dist[w] < 0 or dist[w] > budget:
                    continue
                path.append(w)
                hit = dfs(w, used | (1 << w), count + 1)
                if hit is not None:
                    return hit
                path.pop()
            return None

        found = dfs(s, 1 << s, 1)
        if found is not None:
            return found
    return None


def scrub_short_odd_cycles_plain(G: Graph, r: int) -> ScrubReport:
    """Delete whole odd cycles of length 3, 5, ..., 2r - 1 until none remain.

    r = 1 is the identity.  The result has odd girth at least 2r + 1; if the
    input additionally had no (2r+1)-cycle the result's odd girth exceeds
    2r + 1 (deletions never create cycles) and the removal count obeys the
    n^(3/2) ceiling, which `holds` checks exactly.
    """
    if r < 1:
        raise ValueError("r must be positive")
    H = G
    removed: list[tuple[int, int]] = []
    cycles: list[tuple[int, ...]] = []
    for ell in range(3, 2 * r, 2):
        while True:
            cyc = find_cycle_of_length_plain(H, ell)
            if cyc is None:
                break
            pairs = [
                (cyc[i], cyc[(i + 1) % ell]) for i in range(ell)
            ]
            H = H.delete_edges(pairs)
            removed.extend(tuple(sorted(p)) for p in pairs)
            cycles.append(cyc)
    return ScrubReport(
        graph=H, r=r, removed_edges=tuple(removed), cycles=tuple(cycles)
    )


def assert_scrub_matches_plain(G: Graph, r: int) -> None:
    got = scrub_short_odd_cycles(G, r)
    want = scrub_short_odd_cycles_plain(G, r)
    assert got.cycles == want.cycles
    assert got.removed_edges == want.removed_edges
    assert got.graph == want.graph


def relabeled(G: Graph, seed: int) -> Graph:
    """G under a seeded vertex permutation, so hubs and spines leave vertex 0."""
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


@given(
    st.builds(
        random_graph,
        n=st.integers(3, 28),
        p=st.sampled_from([0.1, 0.25, 0.4, 0.7]),
        seed=st.integers(0, 2**32),
    ),
    st.integers(1, 3),
)
@settings(max_examples=200)
def test_scrub_matches_plain_reference(G, r):
    assert_scrub_matches_plain(G, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_scrub_matches_plain_on_windmills_and_books(r):
    graphs = [G for _, G in c5_free_scrub_suite()]
    for t in (1, 2, 7, 15):
        graphs += [windmill(t), book(t)]
        graphs += [relabeled(windmill(t), t), relabeled(book(t), t)]
    for G in graphs:
        assert_scrub_matches_plain(G, r)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_scrub_matches_plain_on_c7_blow_ups(t):
    G = cons.blow_up(cons.cycle(7), t)
    for r in (1, 2, 3, 4):
        assert_scrub_matches_plain(G, r)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_triangle_search_matches_plain_on_all_labeled_graphs(n):
    for G in enumerate_graphs(n):
        assert find_cycle_of_length(G, 3) == find_cycle_of_length_plain(G, 3)


@pytest.mark.parametrize("name", ["windmill-50", "book-40", "K9", "C5[3]-relabeled"])
def test_triangle_walk_and_scrub_match_plain(name):
    G = {
        "windmill-50": windmill(50),
        "book-40": book(40),
        "K9": cons.complete(9),
        "C5[3]-relabeled": relabeled(cons.blow_up(cons.cycle(5), 3), 5),
    }[name]
    assert find_cycle_of_length(G, 3) == find_cycle_of_length_plain(G, 3)
    for r in (2, 3):
        assert_scrub_matches_plain(G, r)
