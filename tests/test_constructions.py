import math
import tracemalloc
from dataclasses import replace
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete._rng import SplitMix64, derive_seed
from kdelete.constructions import (
    _ceil_decimal,
    blow_up,
    mixing_check,
    random_graph,
    second_eigenvalue,
    spectral_lower_bound,
)
from kdelete.corpus import regular_suite
from kdelete.errors import PreconditionError
from kdelete.graphs import build_graph, edges_between, odd_girth
from kdelete.oracle import exact_h
from kdelete.serialize import to_jsonable


def test_generator_shapes():
    assert cons.cycle(6).m == 6
    assert cons.complete(5).m == 10
    assert cons.complete_bipartite(3, 4).m == 12
    assert cons.complete_multipartite([2, 2, 2]).m == 12
    assert cons.hypercube(4).n == 16 and cons.hypercube(4).m == 32
    assert cons.circulant(8, [1, 4]).m == 8 + 4  # step 4 pairs up opposite
    P = cons.petersen()
    assert P.n == 10 and P.m == 15
    assert all(P.degree(v) == 3 for v in range(10))
    assert odd_girth(P) == 5


def test_generator_validation():
    with pytest.raises(ValueError):
        cons.cycle(2)
    with pytest.raises(ValueError):
        cons.random_graph(5, 1.5)


@given(st.integers(2, 7), st.integers(1, 4))
def test_blow_up_edge_count(n, t):
    G = cons.cycle(max(n, 3))
    H = blow_up(G, t)
    assert H.n == G.n * t
    assert H.m == G.m * t * t


def test_blow_up_preserves_odd_girth():
    for t in (2, 3):
        assert odd_girth(blow_up(cons.cycle(5), t)) == 5
        assert odd_girth(blow_up(cons.cycle(7), t)) == 7
        assert odd_girth(blow_up(cons.complete_bipartite(2, 3), t)) == math.inf


@given(st.integers(0, 2**32))
@settings(max_examples=20)
def test_random_graph_is_seed_deterministic(seed):
    a = random_graph(12, 0.4, seed=seed)
    b = random_graph(12, 0.4, seed=seed)
    assert a.edges == b.edges


def _pairwise(n, adjacent):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adjacent(u, v)])


def _same_graph(G, H):
    assert G.n == H.n and G.adj == H.adj
    assert G.ends.tolist() == H.ends.tolist()


@given(st.lists(st.integers(0, 5), max_size=6))
@example([])
@example([0])
@example([3, 0, 2])
def test_complete_multipartite_matches_pairwise(sizes):
    starts = list(accumulate(sizes))
    n = starts[-1] if starts else 0
    part = lambda v: bisect_right(starts, v)  # noqa: E731
    _same_graph(cons.complete_multipartite(sizes), _pairwise(n, lambda u, v: part(u) != part(v)))


def test_complete_multipartite_rejects_negative_part():
    with pytest.raises(ValueError):
        cons.complete_multipartite([2, -1])


@given(st.integers(1, 30), st.lists(st.integers(1, 15), max_size=4))
def test_circulant_matches_pairwise(n, steps):
    steps = [s for s in steps if s <= n // 2]
    adjacent = lambda u, v: (v - u) % n in steps or (u - v) % n in steps  # noqa: E731
    _same_graph(cons.circulant(n, steps), _pairwise(n, adjacent))


def test_disjoint_union_offsets():
    G = cons.disjoint_union([cons.cycle(3), cons.cycle(4)])
    assert G.n == 7 and G.m == 7
    assert not (G.adj[0] >> 3 & 1)


# --- spectral ----------------------------------------------------------------

KNOWN_LAMBDA = [
    ("petersen", cons.petersen(), 2.0),
    ("C6", cons.cycle(6), 2.0),  # bipartite: |mu_min| = d
    ("K5", cons.complete(5), 1.0),
    ("K33", cons.complete_bipartite(3, 3), 3.0),
    ("Q3", cons.hypercube(3), 3.0),
    ("C5", cons.cycle(5), (1 + math.sqrt(5)) / 2),  # |2 cos(4 pi/5)|
]


@pytest.mark.parametrize("name,G,lam", KNOWN_LAMBDA, ids=[k[0] for k in KNOWN_LAMBDA])
def test_second_eigenvalue_known_graphs(name, G, lam):
    prof = second_eigenvalue(G)
    assert prof.d == G.degree(0)
    assert abs(prof.lam - lam) <= 1e-6
    assert prof.residual <= 1e-6


def test_second_eigenvalue_is_deterministic(petersen):
    assert second_eigenvalue(petersen) == second_eigenvalue(petersen)


def test_spectral_profile_nonregular():
    G = cons.complete_bipartite(2, 3)
    prof = second_eigenvalue(G)
    assert prof.d is None
    # spectrum of K_{2,3} is +-sqrt(6) and 0 three times: lambda = sqrt(6)
    assert abs(prof.lam - math.sqrt(6)) <= prof.residual + 1e-12
    with pytest.raises(PreconditionError):
        spectral_lower_bound(G, 2, prof)


def test_certificate_sound_and_rational(petersen):
    prof = second_eigenvalue(petersen)
    for k in (2, 3):
        cert = spectral_lower_bound(petersen, k, prof)
        assert isinstance(cert.value, Fraction)
        assert cert.value <= exact_h(petersen, k)


def test_certificate_nontrivial_on_k5():
    K = cons.complete(5)
    cert = spectral_lower_bound(K, 2, second_eigenvalue(K))
    assert cert.value > 0
    assert cert.value <= exact_h(K, 2) == 4


def test_certificate_lambda_absorbs_residual(petersen):
    prof = second_eigenvalue(petersen)
    cert = spectral_lower_bound(petersen, 2, prof)
    assert cert.lam_upper >= Fraction(2)  # true lambda of the graph


def test_mixing_check_exhaustive_small():
    for G in (cons.cycle(5), cons.cycle(6), cons.complete(5)):
        rep = mixing_check(G, second_eigenvalue(G))
        assert rep.exhaustive
        assert rep.min_slack >= -1e-6


def test_mixing_check_sampled(petersen):
    rep = mixing_check(petersen, second_eigenvalue(petersen), samples=100)
    assert not rep.exhaustive
    assert rep.min_slack >= -1e-6
    assert rep.pairs_checked > 100  # structured pairs come on top


def test_mixing_check_needs_regular():
    with pytest.raises(PreconditionError):
        mixing_check(cons.complete_bipartite(2, 4))


def _mixing_reference(G, profile, samples=200, seed=0):
    """The per-probe loop over Python ints that mixing_check replaced; returns
    the fields of its report as the old to_json dict."""
    n, d, lam = G.n, profile.d, profile.lam
    full = G.full_mask
    best, witness, checked = math.inf, (0, 0), 0

    def probe(am, bm):
        nonlocal best, witness, checked
        if am == 0 or bm == 0:
            return
        a, b = am.bit_count(), bm.bit_count()
        s = lam * math.sqrt(a * b) - abs(edges_between(G, am, bm) - d * a * b / n)
        checked += 1
        if s < best:
            best, witness = s, (am, bm)

    if n <= 6:
        for am in range(1, 1 << n):
            for bm in range(1, 1 << n):
                probe(am, bm)
    else:
        probe(full, full)
        evens = sum(1 << v for v in range(0, n, 2))
        probe(evens, full ^ evens)
        half = sum(1 << v for v in range(n // 2))
        probe(half, full ^ half)
        for v in range(n):
            probe(1 << v, 1 << v)
            probe(1 << v, full)
            probe(G.adj[v], full ^ G.adj[v])
        rng = SplitMix64(derive_seed(seed, 0x51, G.n, G.m))
        for _ in range(samples):
            am = rng.next_u64() & full
            bm = rng.next_u64() & full
            if n > 64:
                for base in range(64, n, 64):
                    am |= (rng.next_u64() & ((1 << min(64, n - base)) - 1)) << base
                    bm |= (rng.next_u64() & ((1 << min(64, n - base)) - 1)) << base
            probe(am, bm)
    return {
        "min_slack": best,
        "witness": list(witness),
        "pairs_checked": checked,
        "exhaustive": n <= 6,
    }


@st.composite
def graphs_and_pairs(draw):
    n = draw(st.integers(1, 140))
    G = random_graph(n, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), seed=draw(st.integers(0, 99)))
    masks = st.integers(0, G.full_mask)
    return G, draw(st.lists(st.tuples(masks, masks), max_size=12))


def _paley(q):
    return cons.circulant(q, sorted({x * x % q for x in range(1, q)} & set(range(1, q // 2 + 1))))


MIXING_GRAPHS = regular_suite() + [(f"paley-{q}", _paley(q)) for q in (13, 17, 29, 37, 41)] + [
    ("circulant-150", cons.circulant(150, [1, 7, 31])),  # three 64-bit chunks per sample
]
SPLIT_GRAPHS = [g for g in MIXING_GRAPHS if g[0] in ("c5", "paley-17", "circulant-150")]


def _assert_matches_reference(G, samples, seed):
    prof = second_eigenvalue(G)
    # lambda = 0 moves the minimum to the pair farthest from d|A||B|/n
    for p in (prof, replace(prof, lam=0.0)):
        rep = mixing_check(G, p, samples=samples, seed=seed)
        ref = _mixing_reference(G, p, samples=samples, seed=seed)
        assert repr(rep.min_slack) == repr(ref["min_slack"])
        assert rep.witness == tuple(ref["witness"])
        assert (rep.pairs_checked, rep.exhaustive) == (ref["pairs_checked"], ref["exhaustive"])
        assert to_jsonable(rep) == ref


@given(graphs_and_pairs())
def test_pair_edges_match_edges_between(case):
    G, pairs = case
    want = [edges_between(G, am, bm) for am, bm in pairs]
    assert cons._pair_edges(G, pairs).tolist() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "_BLOCK", 1)  # one row and one member per block
        assert cons._pair_edges(G, pairs).tolist() == want


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("samples", [0, 5, 200])
@pytest.mark.parametrize("name,G", MIXING_GRAPHS, ids=[g[0] for g in MIXING_GRAPHS])
def test_mixing_check_matches_reference(name, G, samples, seed):
    _assert_matches_reference(G, samples, seed)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name,G", SPLIT_GRAPHS, ids=[g[0] for g in SPLIT_GRAPHS])
def test_mixing_check_split_blocks_match_reference(monkeypatch, name, G, rows):
    monkeypatch.setattr(cons, "_BLOCK", rows * G.n)
    _assert_matches_reference(G, 200, 3)


def test_mixing_check_memory_stays_bounded():
    G = cons.circulant(1000, [1, 7, 31, 100])
    prof = second_eigenvalue(G)
    tracemalloc.start()
    try:
        mixing_check(G, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 6 MiB in blocks; gathering the adjacency words of every probe at
    # once takes 33 MiB
    assert peak <= 24 * 2**20


def test_ceil_decimal_rounds_up():
    assert _ceil_decimal(1.0000000000005) >= Fraction(1.0000000000005)
    assert _ceil_decimal(2.0) == 2
    v = _ceil_decimal(math.pi)
    assert 0 <= float(v) - math.pi < 1e-11
