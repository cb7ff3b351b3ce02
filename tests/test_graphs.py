import contextlib
import io
import math
import random
import signal
import sys
from itertools import combinations, islice, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete.cli import main
from kdelete.corpus import kneser, mycielski
from kdelete.errors import CapabilityError
from kdelete.graphs import (
    INFINITE_GIRTH,
    MAX_VERTICES,
    Graph,
    bfs_layers,
    bit_rows,
    bits_list,
    build_graph,
    degree_sum,
    edges_between,
    edges_inside,
    find_clique,
    find_cycle_of_length,
    format_edge_list,
    iter_bits,
    label_masks,
    mask_of,
    neighborhood,
    odd_girth,
    parse_edge_list,
    row_bits,
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


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129])
def test_bit_rows_round_trip(n):
    full = (1 << n) - 1
    top = 1 << (n - 1) if n else 0
    for masks in ([], [0, full, top, full // 3]):  # full // 3 sets every other bit
        rows = bit_rows(masks, n)
        assert rows.dtype == np.dtype("<u8")
        assert rows.shape == (len(masks), (n + 63) // 64)
        for row, mask in zip(rows.tolist(), masks):  # word w holds bits 64w..64w+63
            assert row == [mask >> 64 * w & (2**64 - 1) for w in range(len(row))]
        bits = row_bits(rows, n)
        assert bits.dtype == np.uint8 and bits.shape == (len(masks), n)
        assert [mask_of(np.flatnonzero(b).tolist()) for b in bits] == masks
        for i in range(len(masks)):
            assert row_bits(rows[i], n).tolist() == bits[i].tolist()


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
    for pairs in ([(0, 1, 2)], [(0,), (1,)], [(0, 1), (2,)]):
        with pytest.raises(ValueError, match="^each edge must be a pair"):
            build_graph(3, pairs)


@given(graphs)
def test_edge_list_roundtrip(G):
    assert parse_edge_list(format_edge_list(G)).edges == G.edges


@given(graphs)
def test_parsed_and_built_graphs_are_the_same_graph(G):
    H = parse_edge_list(format_edge_list(G))
    assert H == G and hash(H) == hash(G)
    assert H.m == G.m and H.adj == G.adj
    assert np.array_equal(H.ends, G.ends) and H.edges == G.edges
    assert not H.ends.flags.writeable and not G.ends.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 4])
def test_graph_without_edges_has_empty_ends(n):
    for G in (build_graph(n, []), parse_edge_list(f"{n} 0\n")):
        assert G.m == 0 and G.edges == () and G.adj == (0,) * n
        assert G.ends.shape == (0, 2) and G.ends.dtype == np.int64
        assert G.ends.flags.c_contiguous and not G.ends.flags.writeable


def _assert_canonical(G):
    """G.ends is a read-only, C-contiguous (m, 2) int64 array of pairs u < v
    strictly increasing in u * n + v, and G.adj has exactly those edges."""
    e = G.ends
    assert e.dtype == np.int64 and e.shape == (G.m, 2)
    assert e.flags.c_contiguous and not e.flags.writeable
    assert ((0 <= e[:, 0]) & (e[:, 0] < e[:, 1]) & (e[:, 1] < G.n)).all()
    keys = e[:, 0] * G.n + e[:, 1]
    assert (keys[1:] > keys[:-1]).all()
    adj = [0] * G.n
    for u, v in e.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assert G.adj == tuple(adj)


_GENERATOR_ARGS = {
    "cycle": [(3,), (70,)],
    "complete": [(0,), (1,), (12,)],
    "multipartite": [([3, 0, 5, 9],), ([1],)],
    "petersen": [()],
    "random": [(66, 0.3, 5), (9, 0.0), (17, 1.0)],
}


def test_every_generator_makes_canonical_ends():
    assert set(_GENERATOR_ARGS) == set(cons.GENERATORS)
    for name, calls in _GENERATOR_ARGS.items():
        for args in calls:
            _assert_canonical(cons.GENERATORS[name](*args))


def test_enumerated_graphs_have_canonical_ends():
    for n in (1, 4):
        for G in enumerate_graphs(n):
            _assert_canonical(G)


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


def _odd_girth_reference(G: Graph) -> float:
    """odd_girth as it was before the bit-parallel search, verbatim but for
    its name: a separate layered BFS from every vertex."""
    best = INFINITE_GIRTH
    for v in range(G.n):
        frontier = 1 << v
        seen = frontier
        depth = 0
        while frontier and 2 * depth + 1 < best:
            if any(G.adj[u] & frontier for u in iter_bits(frontier)):
                best = 2 * depth + 1
                break
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= G.adj[u]
            frontier = nxt & ~seen
            seen |= frontier
            depth += 1
        if best == 3:
            return 3
    return best


def _odd_girth_within(G: Graph) -> float:
    """odd_girth(G), failing instead of hanging when no answer comes within
    5 s (a search whose layers never empty would loop)."""
    def expire(signum, frame):
        raise TimeoutError(f"odd_girth gave no answer within 5 s on {G!r}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        return odd_girth(G)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("G", [
    *(cons.cycle(n) for n in range(3, 62)),
    *(cons.blow_up(cons.cycle(c), t) for c in (5, 7, 11) for t in (1, 2, 3, 5)),
    *(cons.complete(n) for n in range(1, 9)),
    *(cons.hypercube(d) for d in range(1, 7)),
    kneser(9, 4), kneser(11, 5),
    *(mycielski(i) for i in range(4, 9)),
], ids=[
    *(f"C{n}" for n in range(3, 62)),
    *(f"C{c}[{t}]" for c in (5, 7, 11) for t in (1, 2, 3, 5)),
    *(f"K{n}" for n in range(1, 9)),
    *(f"Q{d}" for d in range(1, 7)),
    "K(9,4)", "K(11,5)",
    *(f"M{i}" for i in range(4, 9)),
])
def test_odd_girth_matches_reference_on_families(G):
    assert _odd_girth_within(G) == _odd_girth_reference(G)


_sparse_graphs = st.integers(0, 16).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=2 * n,
    ).map(lambda es: build_graph(n, [e for e in es if e[0] != e[1]]))
)


@settings(max_examples=300)
@given(_sparse_graphs, _sparse_graphs)
def test_odd_girth_matches_reference_on_random_graphs(G, H):
    # n <= 16, edgeless and disconnected graphs included; the union of the
    # two draws is disconnected whenever both have vertices.
    for F in (G, H, cons.disjoint_union([G, H])):
        assert _odd_girth_within(F) == _odd_girth_reference(F), F.edges


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
    assert P.induced(0) == (build_graph(0, []), ())


@pytest.mark.parametrize("G", [
    cons.petersen(), build_graph(0, []), build_graph(3, []),
    cons.blow_up(cons.cycle(7), 50),
], ids=["petersen", "empty", "edgeless3", "C7[50]"])
def test_induced_full_mask_is_the_graph_itself(G):
    H, verts = G.induced(G.full_mask)
    assert H is G
    assert verts == tuple(range(G.n))


def test_delete_edges():
    K = cons.complete(4)
    H = K.delete_edges([(0, 1), (2, 3)])
    assert H.m == 4
    assert not (H.adj[0] >> 1 & 1)


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65])
@settings(max_examples=12)
@given(p=st.sampled_from([0.0, 0.05, 0.3, 0.8]), seed=st.integers(0, 2**32 - 1))
def test_induced_and_delete_edges_match_set_references(n, p, seed):
    # Rows of one, two and nine bytes; the pieces include the empty mask and
    # an edgeless piece of several vertices.
    rng = random.Random(seed)
    edges = {e for e in combinations(range(n), 2) if rng.random() < p}
    given_pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(given_pairs)
    G = build_graph(n, given_pairs)
    independent = 0
    for v in range(n):
        if rng.random() < 0.5 and not G.adj[v] & independent:
            independent |= 1 << v
    masks = [0, independent, rng.getrandbits(n), rng.getrandbits(n) | rng.getrandbits(n),
             G.full_mask ^ 1 << rng.randrange(n)]
    for vmask in masks:
        H, verts = G.induced(vmask)
        local = {g: i for i, g in enumerate(v for v in range(n) if vmask >> v & 1)}
        assert verts == tuple(local)
        assert H.n == len(local)
        assert H.edges == tuple(sorted(
            (local[u], local[v]) for u, v in edges if u in local and v in local
        ))
        _assert_canonical(H)
    assert G.induced(independent)[0].m == 0

    drop = given_pairs[: rng.randint(0, len(given_pairs))]
    H = G.delete_edges(drop)
    assert H.edges == tuple(sorted(edges - {(min(e), max(e)) for e in drop}))
    _assert_canonical(H)
    absent = [e for e in combinations(range(n), 2) if e not in edges]
    if absent:
        u, v = rng.choice(absent)
        at = rng.randint(0, len(drop))
        with pytest.raises(ValueError, match=rf"^edge \({v}, {u}\) not present$"):
            G.delete_edges(drop[:at] + [(v, u)] + drop[at:])


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


def _ref_bfs_layers(nbrs, start, allowed):
    """Breadth-first layers from the vertex set `start` through the vertex
    set `allowed`, as sets, up to the first empty one."""
    layers, layer, seen = [], set(start), set(start)
    while layer:
        layers.append(layer)
        layer = {w for u in layer for w in nbrs[u] if w in allowed} - seen
        seen |= layer
    return layers


@st.composite
def _graphs_up_to_8(draw):
    n = draw(st.integers(4, 8))
    pairs = list(combinations(range(n), 2))
    density = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, x in zip(pairs, keep) if x < density])


@settings(max_examples=150, deadline=None)
@given(_graphs_up_to_8(), st.integers(4, 8))
def test_find_cycle_matches_reference_up_to_8_vertices(G, length):
    # The exhaustive sweep below stops at 5 vertices.
    nbrs = [set(bits_list(a)) for a in G.adj]
    assert find_cycle_of_length(G, length) == _ref_first_cycle(nbrs, length)


def test_bitmask_primitives_match_set_reference():
    # Every labelled graph on up to 5 vertices (1,099 of them), each
    # primitive against plain adjacency sets; the vertex masks double as
    # the allowed masks of bfs_layers and as the vertices of label_masks.
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
                assert degree_sum(G, vmask) == sum(len(nbrs[v]) for v in verts)
                H, back = G.induced(vmask)
                assert back == tuple(verts)
                assert H.n == len(verts)
                assert H.edges == tuple(
                    (i, j) for i, j in combinations(range(len(verts)), 2)
                    if verts[j] in nbrs[verts[i]]
                )
                # walks from vertex 0, from the least allowed vertex and
                # from every vertex outside the allowed mask; a walk has at
                # most n layers, so the slice ends a walk that loops
                for start in (1, vmask & -vmask, G.full_mask & ~vmask):
                    layers = list(islice(bfs_layers(G.adj, start, vmask), n + 1))
                    assert [set(bits_list(x)) for x in layers] == _ref_bfs_layers(
                        nbrs, bits_list(start), set(verts)), (G.edges, start, vmask)
                # each vertex labelled by its degree, into n + 1 masks of
                # which some stay empty; vmask = 0 gives empty int64 arrays
                degrees = np.array([len(nbrs[v]) for v in verts], dtype=np.int64)
                got = label_masks(n + 1, n, degrees, np.array(verts, dtype=np.int64))
                assert got == [mask_of(v for v in verts if len(nbrs[v]) == d)
                               for d in range(n + 1)], (G.edges, vmask)
    assert count == 1099
    # n = 0 still gives count masks; rows past one word, n not a multiple of 64
    none = np.zeros(0, dtype=np.int64)
    assert label_masks(3, 0, none, none) == [0, 0, 0]
    assert label_masks(2, 130, none, none) == [0, 0]
    for n in (65, 130):
        verts = np.arange(n - 1, -1, -3)
        labels = verts % 4  # mask 4 stays empty
        want = [mask_of(v for v in verts.tolist() if v % 4 == i) for i in range(5)]
        assert label_masks(5, n, labels, verts) == want and want[4] == 0


def _reference_build_graph(n, edge_list):
    """build_graph as the parser used it before the numpy parser, verbatim
    but for its name."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge ({u}, {v}) is a self-loop")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), tuple(adj))


# Endpoints beyond int64 on either side, and one beyond uint64.
_BEYOND_INT64 = (2**63, -(2**63) - 1, 2**64 + 5)


@st.composite
def _pair_lists(draw):
    """n and a pair list with duplicates, reversed copies and self-loops,
    and in half the draws endpoints at -1, at n and beyond int64."""
    n = draw(st.integers(-1, 9))
    end = st.integers(0, max(n - 1, 0))
    if draw(st.booleans()):
        end = st.one_of(end, st.sampled_from((-1, n) + _BEYOND_INT64))
    pairs = draw(st.lists(st.tuples(end, end), max_size=10))
    copies = draw(st.lists(st.tuples(st.integers(0, 9), st.booleans()), max_size=6))
    if pairs:
        pairs += [pairs[i % len(pairs)][:: -1 if flip else 1] for i, flip in copies]
    return n, draw(st.permutations(pairs))


def _build_outcome(build, n, pairs):
    try:
        G = build(n, pairs)
    except ValueError as exc:
        return type(exc), str(exc)
    return G.n, G.edges, G.adj


@settings(max_examples=100)
@given(_pair_lists())
@example((0, []))
@example((0, [(0, 0)]))
@example((-1, [(2**64 + 5, 0)]))
@example((3, [(2, 0), (0, 2), (1, 2), (2, 1), (0, 2)]))
@example((3, [(2**63, 1), (1, 1)]))
@example((3, [(1, 1), (-(2**63) - 1, 3)]))
def test_build_graph_matches_reference(case):
    n, pairs = case
    want = _build_outcome(_reference_build_graph, n, pairs)
    assert _build_outcome(build_graph, n, pairs) == want
    if not isinstance(want[0], type):  # the same pairs as an edge list
        text = "\n".join([f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs])
        G = parse_edge_list(text)
        assert (G.n, G.edges, G.adj) == want
        _assert_canonical(G)


def _reference_parse(text):
    """The line-by-line parse_edge_list the numpy parser replaced, verbatim
    but for its name and _reference_build_graph."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n > MAX_VERTICES:
        raise CapabilityError(
            f"edge lists are limited to {MAX_VERTICES} vertices (header says {n})"
        )
    if len(rows) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(rows) - 1} lines follow")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return _reference_build_graph(n, edges)


# Digits, signs, '_', '#', blanks (non-ASCII ones too), every str.splitlines()
# break, non-ASCII digits (one full-width), leading zeros, the longest token
# decoded from code points and one digit more, a token beyond int64 and one
# beyond int()'s default digit limit.
_PIECES = (
    list("0123456789-+_#") + [" ", "\t", "\x1f", "\xa0", "\u3000", "\n", "\r", "\r\n"]
    + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\u0663"]
    + ["\uff11", "0007", "9" * 18, "9" * 19, "9" * 20, "7" * 4301]
)
_noise = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)


@st.composite
def _edge_list_texts(draw):
    """Near-valid edge lists with a few pieces spliced in, so that every
    check of the parser, not only the header's, gets exercised."""
    n = draw(st.integers(-1, 7))
    ends = st.integers(-1, max(n, 0) + 1)  # mostly in range, sometimes -1 or n
    edges = draw(st.lists(st.tuples(ends, ends), max_size=8))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
    text = "\n".join([f"{n} {m}"] + [f"{u} {v}" for u, v in edges])
    for piece, at in draw(st.lists(st.tuples(st.sampled_from(_PIECES), st.floats(0, 1)),
                                   max_size=3)):
        cut = int(at * len(text))
        text = text[:cut] + piece + text[cut:]
    return text


def _outcome(parse, text):
    try:
        G = parse(text)
    except (ValueError, CapabilityError) as exc:
        return type(exc), str(exc)
    assert G.ends.dtype == np.int64
    assert np.array_equal(G.ends, np.array(G.edges).reshape(-1, 2))
    return G.n, G.edges, G.adj


def test_no_space_above_the_parsers_character_table():
    # parse_edge_list classifies code points up to U+3000 and reads every
    # code point above it as part of a token.
    assert not any(map(str.isspace, map(chr, range(0x3001, sys.maxunicode + 1))))


@settings(max_examples=400)
@given(st.one_of(_edge_list_texts(), _noise))
def test_parser_matches_line_by_line_reference(text):
    assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("text", [
    "3 1\n0 99999999999999999999\n",  # beyond int64: a range error, as before
    "3 2\n0 99999999999999999999\n1 x\n",  # a bad literal comes first
    "3 2\n0 99999999999999999999\n1 2 3\n",  # so does a misshapen line
    "\r#x\n3 1\n0 1 2 # y\n",  # the message quotes the line as written
    "3 2\r\n0 1\r\n0 1 2\n",  # "\r\n" is one line break
    "3 1\n0 3\n",  # an endpoint equal to n
    "3 2\n0 1\n2\n", "3 2\n0\n1 2\n",  # one-token lines
    "4 0\n", "1 0\r", "2 1\x1c1 1\n", "0 1\n0 0\n", "-5 0\n", "-5 1\n0 x\n",
    "5 2\n0 1\r\n1 0\n", "\n3 1\n0 1 2\r",
    # rows wider than a byte
    pytest.param(format_edge_list(cons.random_graph(20, 0.5, seed=3)), id="random20"),
])
def test_parser_matches_reference_on_edge_cases(text):
    assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)


@st.composite
def _graph_texts(draw):
    """Valid edge lists, so that the commands run past the parser."""
    n = draw(st.integers(2, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=21))
    return format_edge_list(build_graph(n, edges))


@settings(max_examples=120)
@given(st.one_of(_edge_list_texts(), _noise, _graph_texts()), st.sampled_from([
    ["cover", "--k", "2"], ["partition", "--method", "trianglefree", "--k", "2"],
    ["partition", "--method", "clique", "--r", "4", "--k", "2"],
    ["partition", "--method", "wheel", "--r", "1", "--k", "2"],
    ["partition", "--method", "oddgirth", "--r", "1", "--k", "2"],
    ["partition", "--method", "oddcycle", "--r", "2", "--k", "2"],
    ["maxcut", "--method", "local"], ["maxcut", "--method", "exact"],
    ["maxcut", "--method", "driver", "--r", "2"],
    ["scrub", "--r", "2"], ["oracle", "h", "--k", "2"],
]))
def test_cli_exit_codes_on_generated_input(text, argv):
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
