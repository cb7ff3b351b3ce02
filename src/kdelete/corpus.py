"""Deterministic test corpora: named families with the structure each
partitioner expects, sized so the full verification tiers stay fast.

Every suite returns (name, graph) pairs in a fixed order; randomized members
derive their seeds from the suite seed and their position, so the corpora
are identical across runs and platforms.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._rng import SplitMix64, derive_seed
from .constructions import (
    _coin_hits,
    blow_up,
    circulant,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    disjoint_union,
    hypercube,
    petersen,
    random_graph,
)
from .graphs import Graph, build_graph
from .oracle import enumerate_graphs

Suite = list[tuple[str, Graph]]


def windmill(t: int) -> Graph:
    """t triangles sharing one vertex.  Full of triangles, free of 5-cycles
    (any cycle through two different blades revisits the hub)."""
    if t < 1:
        raise ValueError("t must be positive")
    edges = []
    for i in range(t):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return build_graph(1 + 2 * t, edges)


def book(t: int) -> Graph:
    """t triangles sharing one edge; also 5-cycle-free (every page vertex
    has only the two spine endpoints as neighbors)."""
    if t < 1:
        raise ValueError("t must be positive")
    edges = [(0, 1)]
    for i in range(t):
        p = 2 + i
        edges += [(0, p), (1, p)]
    return build_graph(2 + t, edges)


def mycielski(i: int) -> Graph:
    """Mycielski graph M_i: triangle-free with chromatic number i.  M_2 = K_2;
    M_{j+1} adds a shadow u' of each u (joined to N(u)) and a hub joined to
    every shadow."""
    if i < 2:
        raise ValueError("i must be at least 2")
    n, edges = 2, [(0, 1)]
    for _ in range(i - 2):
        shadows = [(n + u, v) for u, v in edges] + [(n + v, u) for u, v in edges]
        hub = [(n + u, 2 * n) for u in range(n)]
        n, edges = 2 * n + 1, edges + shadows + hub
    return build_graph(n, edges)


def kneser(n: int, r: int) -> Graph:
    """Kneser graph K(n, r): the r-subsets of range(n) in lexicographic order,
    adjacent when disjoint.  K(2r + 1, r) is the odd graph, of odd girth
    2r + 1."""
    verts = [frozenset(c) for c in combinations(range(n), r)]
    return build_graph(len(verts), [
        (a, b) for a, b in combinations(range(len(verts)), 2) if not verts[a] & verts[b]
    ])


def random_bipartite(a: int, b: int, p: float, seed: int = 0) -> Graph:
    """Each pair (u, a + v), u < a and v < b, independently with probability
    p, in lexicographic order."""
    rng = SplitMix64(derive_seed(seed, 0x42, a, b))
    u, v = np.divmod(_coin_hits(rng, a * b, p), b)
    return build_graph(a + b, zip(u.tolist(), (a + v).tolist()))


def cover_suite(seed: int = 0) -> Suite:
    """200 mixed graphs on at most 60 vertices for the cover-quality bound."""
    out: Suite = []
    for i, n in enumerate(range(5, 21)):
        out.append((f"complete-{n}", complete(n)))
        out.append((f"cycle-{n}", cycle(n)))
    out.append(("petersen", petersen()))
    out.append(("hypercube-4", hypercube(4)))
    out.append(("hypercube-5", hypercube(5)))
    for t in (2, 4, 8):
        out.append((f"c5-blowup-{t}", blow_up(cycle(5), t)))
        out.append((f"c7-blowup-{t}", blow_up(cycle(7), t)))
    for a in (10, 20, 30):
        out.append((f"bipartite-{a}-{a}", complete_bipartite(a, a)))
    for s in (3, 5, 9):
        parts = [s] * 4
        out.append((f"multipartite-4x{s}", complete_multipartite(parts)))
    i = 0
    while len(out) < 200:
        n = 10 + (i * 7) % 51
        p = (2 + i % 7) / 10
        out.append((f"random-{n}-p{p}", random_graph(n, p, seed=seed + i)))
        i += 1
    return out[:200]


def triangle_free_suite(seed: int = 0) -> Suite:
    """Triangle-free graphs spanning sparse, dense bipartite, and blown-up
    odd-girth-5 structure."""
    return [
        ("c5", cycle(5)),
        ("petersen", petersen()),
        ("c5-blowup-4", blow_up(cycle(5), 4)),
        ("c5-blowup-10", blow_up(cycle(5), 10)),
        ("c5-blowup-12", blow_up(cycle(5), 12)),
        ("c7-blowup-8", blow_up(cycle(7), 8)),
        ("bipartite-20-20", complete_bipartite(20, 20)),
        ("bipartite-40-40", complete_bipartite(40, 40)),
        ("bipartite-15-60", complete_bipartite(15, 60)),
        ("hypercube-4", hypercube(4)),
        ("hypercube-6", hypercube(6)),
        ("random-bipartite-30-30", random_bipartite(30, 30, 0.5, seed=seed)),
        ("random-bipartite-50-50", random_bipartite(50, 50, 0.3, seed=seed + 1)),
        ("cycle-41", cycle(41)),
    ]


def k4_free_suite() -> Suite:
    """K_4-free graphs up to n = 500, including dense complete tripartite
    ones and large triangle-free blow-ups."""
    return [
        ("c5-blowup-100", blow_up(cycle(5), 100)),
        ("tripartite-100", complete_multipartite([100, 100, 100])),
        ("tripartite-166", complete_multipartite([166, 167, 167])),
        ("c5-blowup-40", blow_up(cycle(5), 40)),
        ("bipartite-250-250", complete_bipartite(250, 250)),
        ("petersen-blowup-20", blow_up(petersen(), 20)),
    ]


def odd_girth7_suite(seed: int = 0) -> Suite:
    """Graphs of odd girth at least 7 (blow-ups preserve odd girth; bipartite
    graphs have none at all)."""
    return [
        ("c7", cycle(7)),
        ("c7-blowup-8", blow_up(cycle(7), 8)),
        ("c9-blowup-6", blow_up(cycle(9), 6)),
        ("c11-blowup-4", blow_up(cycle(11), 4)),
        ("hypercube-5", hypercube(5)),
        ("bipartite-30-30", complete_bipartite(30, 30)),
        ("random-bipartite-40-40", random_bipartite(40, 40, 0.4, seed=seed)),
        ("cycle-29", cycle(29)),
    ]


def c5_free_scrub_suite() -> Suite:
    """Graphs full of triangles but free of 5-cycles, for the scrubber:
    windmills, books, and unions of K_4 components (a 5-cycle cannot fit in
    a 4-vertex component)."""
    return [
        ("windmill-20", windmill(20)),
        ("windmill-80", windmill(80)),
        ("windmill-149", windmill(149)),
        ("book-50", book(50)),
        ("book-200", book(200)),
        ("k4-union-25", disjoint_union([complete(4)] * 25)),
        ("k4-union-70", disjoint_union([complete(4)] * 70)),
        (
            "windmill-book-mix",
            disjoint_union([windmill(30), book(40), complete(4), complete(4)]),
        ),
        ("triangle-union-60", disjoint_union([complete(3)] * 60)),
    ]


def regular_suite() -> Suite:
    """Regular graphs on at most 10 vertices for spectral certificates."""
    return [
        ("c4", cycle(4)),
        ("c5", cycle(5)),
        ("c6", cycle(6)),
        ("c7", cycle(7)),
        ("c9", cycle(9)),
        ("c10", cycle(10)),
        ("k4", complete(4)),
        ("k5", complete(5)),
        ("k6", complete(6)),
        ("k7", complete(7)),
        ("k10", complete(10)),
        ("k33", complete_bipartite(3, 3)),
        ("k44", complete_bipartite(4, 4)),
        ("k55", complete_bipartite(5, 5)),
        ("octahedron", complete_multipartite([2, 2, 2])),
        ("wagner", circulant(8, [1, 4])),
        ("petersen", petersen()),
        ("hypercube-3", hypercube(3)),
        ("circulant-10-13", circulant(10, [1, 3])),
        ("circulant-9-12", circulant(9, [1, 2])),
        ("prism-5", circulant(10, [2, 5])),
    ]


def blowup_suite() -> Suite:
    """30 small canonical graphs (one per isomorphism class, by edge-mask
    code order) for the exact blow-up identity."""
    out: Suite = []
    for n in (2, 3, 4, 5):
        for i, G in enumerate(enumerate_graphs(n, up_to_iso=True)):
            out.append((f"canon-{n}-{i}", G))
            if len(out) == 30:
                return out
    return out


def random_n8_suite(seed: int = 0) -> Suite:
    """100 seeded random graphs on up to 8 vertices, each with an edge."""
    out: Suite = []
    i = 0
    while len(out) < 100:
        n = 4 + i % 5
        p = (3 + i % 6) / 10
        G = random_graph(n, p, seed=derive_seed(seed, 0x44, i))
        i += 1
        if G.m == 0:
            continue
        out.append((f"random-{n}-{i}", G))
    return out


def bipartite_equality_witness(n: int) -> Graph:
    """The balanced complete bipartite graph, worst case for one-center
    coverage: its floor(n^2/4) edges all avoid any single neighborhood."""
    return complete_bipartite(n // 2, n - n // 2)
