import math
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete.errors import CapabilityError
from kdelete.graphs import (
    MAX_VERTICES,
    bits_list,
    build_graph,
    degree_sum,
    edges_between,
    edges_inside,
    find_clique,
    find_cycle_of_length,
    format_edge_list,
    mask_of,
    neighborhood,
    odd_girth,
    parse_edge_list,
)
from kdelete.oracle import enumerate_graphs

graphs = st.integers(2, 9).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=n * (n - 1) // 2,
    ).map(lambda es: build_graph(n, list(es)))
)


def test_mask_roundtrip():
    assert bits_list(mask_of([0, 3, 5])) == [0, 3, 5]
    assert mask_of([]) == 0


def test_build_graph_dedups_and_orients():
    G = build_graph(4, [(1, 0), (0, 1), (2, 3)])
    assert G.m == 2
    assert G.edges == ((0, 1), (2, 3))
    assert G.degree(0) == 1 and G.degree(3) == 1


def test_build_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])


@given(graphs)
def test_edge_list_roundtrip(G):
    assert parse_edge_list(format_edge_list(G)).edges == G.edges


def test_parse_edge_list_header_and_comments():
    G = parse_edge_list("# a triangle\n3 3\n0 1\n1 2 # last\n0 2\n")
    assert G.n == 3 and G.m == 3
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_parse_edge_list_vertex_cap():
    assert parse_edge_list(f"{MAX_VERTICES} 1\n0 1\n").n == MAX_VERTICES
    with pytest.raises(CapabilityError):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")


@given(graphs)
def test_degree_sum_counts_incidences(G):
    full = G.full_mask
    assert degree_sum(G, full) == 2 * G.m
    # any split: degrees inside + crossing incidences
    S = full & 0b1010101
    T = full & ~S
    assert degree_sum(G, S) == 2 * edges_inside(G, S) + edges_between(G, S, T)


@given(graphs)
def test_neighborhood_excludes_seed(G):
    S = G.full_mask & 0b110
    nb = neighborhood(G, S)
    assert nb & S == 0


def test_odd_girth_values():
    assert odd_girth(cons.cycle(5)) == 5
    assert odd_girth(cons.cycle(7)) == 7
    assert odd_girth(cons.complete(4)) == 3
    assert odd_girth(cons.cycle(6)) == math.inf
    assert odd_girth(cons.hypercube(3)) == math.inf
    assert odd_girth(cons.blow_up(cons.cycle(7), 3)) == 7


def test_find_clique_least_witness():
    K = cons.complete(5)
    assert find_clique(K, 3) == (0, 1, 2)
    assert find_clique(cons.petersen(), 3) is None
    assert find_clique(cons.complete_bipartite(3, 3), 3) is None


def test_find_cycle_of_length():
    C = cons.cycle(7)
    cyc = find_cycle_of_length(C, 7)
    assert cyc is not None and len(cyc) == 7
    assert find_cycle_of_length(C, 5) is None
    assert find_cycle_of_length(cons.petersen(), 5) is not None
    assert find_cycle_of_length(cons.petersen(), 3) is None


@given(graphs, st.integers(3, 7))
def test_found_cycles_are_real(G, length):
    cyc = find_cycle_of_length(G, length)
    if cyc is None:
        return
    assert len(cyc) == len(set(cyc)) == length
    for i in range(length):
        u, v = cyc[i], cyc[(i + 1) % length]
        assert G.adj[u] >> v & 1


def test_induced_subgraph():
    P = cons.petersen()
    H, verts = P.induced(mask_of([0, 1, 2, 3, 4]))  # outer C5
    assert H.n == 5 and H.m == 5
    assert tuple(verts) == (0, 1, 2, 3, 4)


def test_delete_edges():
    K = cons.complete(4)
    H = K.delete_edges([(0, 1), (2, 3)])
    assert H.m == 4
    assert not (H.adj[0] >> 1 & 1)


def _ref_first_cycle(nbrs, length):
    """Lexicographically least vertex sequence closing a cycle of the given
    length with its least vertex first and its second vertex below its last,
    by trying every ordered vertex tuple."""
    for seq in permutations(range(len(nbrs)), length):
        if seq[0] == min(seq) and seq[1] < seq[-1] and all(
            seq[i - 1] in nbrs[seq[i]] for i in range(length)
        ):
            return seq
    return None


def test_bitmask_primitives_match_set_reference():
    # Every labelled graph on up to 5 vertices (1,099 of them), each
    # primitive against plain adjacency sets.
    count = 0
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            count += 1
            nbrs = [set() for _ in range(n)]
            for u, v in G.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            for r in range(1, n + 2):
                want = next((c for c in combinations(range(n), r)
                             if all(b in nbrs[a] for a, b in combinations(c, 2))),
                            None)
                assert find_clique(G, r) == want, (G.edges, r)
            cycles = {}
            for length in range(3, n + 2):
                cycles[length] = _ref_first_cycle(nbrs, length)
                assert find_cycle_of_length(G, length) == cycles[length], (
                    G.edges, length)
            girth = min((c for c in range(3, n + 1, 2) if cycles[c]),
                        default=math.inf)
            assert odd_girth(G) == girth, G.edges
            for vmask in range(1 << n):
                verts = [v for v in range(n) if vmask >> v & 1]
                H, back = G.induced(vmask)
                assert back == tuple(verts)
                assert H.n == len(verts)
                assert H.edges == tuple(
                    (i, j) for i, j in combinations(range(len(verts)), 2)
                    if verts[j] in nbrs[verts[i]]
                )
    assert count == 1099
