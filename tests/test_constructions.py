import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete.constructions import (
    _ceil_decimal,
    blow_up,
    mixing_check,
    random_graph,
    second_eigenvalue,
    spectral_lower_bound,
)
from kdelete.errors import PreconditionError
from kdelete.graphs import odd_girth
from kdelete.oracle import exact_h


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


def test_ceil_decimal_rounds_up():
    assert _ceil_decimal(1.0000000000005) >= Fraction(1.0000000000005)
    assert _ceil_decimal(2.0) == 2
    v = _ceil_decimal(math.pi)
    assert 0 <= float(v) - math.pi < 1e-11
