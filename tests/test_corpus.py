import math

from kdelete import corpus
from kdelete.graphs import contains_clique, find_cycle_of_length, odd_girth


def test_cover_suite_size_and_spread():
    suite = corpus.cover_suite(seed=0)
    assert len(suite) == 200
    ns = {G.n for _, G in suite}
    assert max(ns) <= 60
    assert len(ns) > 5
    # deterministic across calls
    again = corpus.cover_suite(seed=0)
    assert [(name, G.edges) for name, G in suite[:5]] == [
        (name, G.edges) for name, G in again[:5]
    ]


def test_triangle_free_suite_is_triangle_free():
    for name, G in corpus.triangle_free_suite(seed=0):
        assert not contains_clique(G, 3), name
        if "blowup" in name:
            assert G.n <= 60, name


def test_k4_free_suite():
    suite = corpus.k4_free_suite()
    assert any(G.n == 500 for _, G in suite)
    for name, G in suite:
        if G.n <= 60:  # spot-check the small members exhaustively
            assert not contains_clique(G, 4), name


def test_odd_girth7_suite():
    for name, G in corpus.odd_girth7_suite(seed=0):
        assert odd_girth(G) > 5, name


def test_c5_free_scrub_suite():
    suite = corpus.c5_free_scrub_suite()
    assert max(G.n for _, G in suite) <= 300
    for name, G in suite:
        if G.n <= 120:
            assert find_cycle_of_length(G, 5) is None, name


def test_windmill_and_book_shapes():
    W = corpus.windmill(4)
    assert W.n == 9 and W.m == 12  # 4 triangles sharing a hub
    B = corpus.book(5)
    assert B.n == 7 and B.m == 11  # 5 pages over a common spine edge
    assert find_cycle_of_length(W, 5) is None
    assert find_cycle_of_length(B, 5) is None


def test_regular_suite_is_regular():
    suite = corpus.regular_suite()
    assert len(suite) >= 15
    for name, G in suite:
        degs = {G.degree(v) for v in range(G.n)}
        assert len(degs) == 1, name
        assert G.n <= 10, name


def test_blowup_suite_canonical_30():
    suite = corpus.blowup_suite()
    assert len(suite) == 30
    assert all(G.n <= 5 for _, G in suite)
    # names unique
    assert len({name for name, _ in suite}) == 30


def test_random_n8_suite():
    suite = corpus.random_n8_suite(seed=0)
    assert len(suite) == 100
    assert all(G.n <= 8 and G.m >= 1 for _, G in suite)


def test_bipartite_equality_witness():
    for n in (4, 5, 6, 7):
        G = corpus.bipartite_equality_witness(n)
        assert G.n == n
        assert G.m == (n // 2) * ((n + 1) // 2)
        assert odd_girth(G) == math.inf
