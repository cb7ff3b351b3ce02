"""Graph families for the benchmark, built without importing kdelete.

Every function returns ``(n, edges)`` with ``edges`` a sorted list of pairs
``u < v``.  The families are the ones whose answers are known from theory:
Mycielski graphs M_i are triangle-free with chromatic number i, Kneser graphs
K(n, k) with n < 3k are triangle-free with chromatic number n - 2k + 2, odd
graphs K(2k+1, k) have odd girth 2k+1, blow-ups C7[t] have h(C7[t], 2) = t^2,
and windmills and books are full of triangles but hold no 5-cycle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def normalize(n: int, pairs) -> tuple[int, list[tuple[int, int]]]:
    edges = sorted({(u, v) if u < v else (v, u) for u, v in pairs if u != v})
    return n, edges


def cycle(n: int):
    return normalize(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return normalize(len(part), [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]])


def blow_up(graph, t: int):
    """Each vertex v becomes v*t .. v*t + t - 1; each edge a K_{t,t}."""
    n, edges = graph
    pairs = [(u * t + a, v * t + b) for u, v in edges for a in range(t) for b in range(t)]
    return normalize(n * t, pairs)


def mycielski(i: int):
    """M_2 = K_2 and M_{j+1} = mu(M_j): triangle-free with chromatic number i."""
    n, edges = 2, [(0, 1)]
    for _ in range(i - 2):
        pairs = list(edges)
        for u, v in edges:  # shadow u' = n + u joins N(u)
            pairs += [(n + u, v), (n + v, u)]
        pairs += [(n + u, 2 * n) for u in range(n)]
        n, edges = normalize(2 * n + 1, pairs)
    return n, edges


def kneser(n: int, k: int):
    """k-subsets of range(n), adjacent when disjoint."""
    verts = [frozenset(c) for c in combinations(range(n), k)]
    pairs = [
        (a, b)
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
        if not verts[a] & verts[b]
    ]
    return normalize(len(verts), pairs)


def paley(q: int):
    """Paley graph on the integers mod a prime q = 1 (mod 4)."""
    squares = {(x * x) % q for x in range(1, q)}
    return normalize(q, [(a, b) for a in range(q) for b in range(a + 1, q) if (b - a) % q in squares])


def windmill(q: int):
    """q triangles sharing the hub 0."""
    pairs = []
    for i in range(q):
        a, b = 1 + 2 * i, 2 + 2 * i
        pairs += [(0, a), (0, b), (a, b)]
    return normalize(1 + 2 * q, pairs)


def book(q: int):
    """q triangles sharing the spine edge 01."""
    pairs = [(0, 1)]
    for p in range(2, q + 2):
        pairs += [(0, p), (1, p)]
    return normalize(q + 2, pairs)


def k4_free_process(n: int, rng: np.random.Generator):
    """Random K4-free process: visit all pairs in a seeded order and keep a
    pair unless its endpoints have two adjacent common neighbours."""
    adj = [0] * n
    order = rng.permutation(n * (n - 1) // 2)
    pairs = list(combinations(range(n), 2))
    for idx in order:
        u, v = pairs[idx]
        common = adj[u] & adj[v]
        closes = False
        c = common
        while c:
            low = c & -c
            w = low.bit_length() - 1
            if adj[w] & common:
                closes = True
                break
            c ^= low
        if not closes:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return normalize(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])


def relabel(graph, rng: np.random.Generator, pin=None):
    """The same graph under a seeded vertex permutation; pin maps a vertex
    to the label it must keep."""
    n, edges = graph
    perm = rng.permutation(n)
    for v, label in (pin or {}).items():
        j = int(np.flatnonzero(perm == label)[0])
        perm[v], perm[j] = perm[j], perm[v]
    return normalize(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def disjoint_union(*graphs):
    pairs, offset = [], 0
    for n, edges in graphs:
        pairs += [(u + offset, v + offset) for u, v in edges]
        offset += n
    return normalize(offset, pairs)


def edge_list_text(graph) -> str:
    n, edges = graph
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
