"""Immutable graphs on dense integer vertices with bit-set adjacency.

Vertex sets are plain Python ints used as bit masks (bit v set <=> vertex v in
the set).  All the partitioning machinery reduces to unions, intersections and
popcounts of these masks, which big-int arithmetic handles efficiently up to
the few-thousand-vertex scale this package targets.  A Graph also keeps one
mask C_d per distinct degree d, so degree_sum(S) = sum_d d * |S & C_d| costs
one AND and popcount per degree class instead of a step per vertex of S.
The edges are kept in one form, `ends`, an (m, 2) int64 array of the pairs
u < v in increasing order of u * n + v, and every Graph is made from it by
_graph.  build_graph and parse_edge_list check and dedupe their pairs in
_canonical_ends; induced and delete_edges take rows straight from `ends`.

The text interchange format is a header line "n m" followed by m lines "u v",
one edge per line; '#' starts a comment.  parse_edge_list reads it with numpy
on the text's code points: it counts the tokens per line, decodes tokens of
ASCII digits straight from their code points (any other token goes through
int() on its str), and checks shape, range and self-loops vectorised; each
error names the first offending line or edge, as a line-by-line parse would.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import CapabilityError

# odd_girth value for graphs without odd cycles
INFINITE_GIRTH = math.inf

_CLIQUE_LIMIT = 12
_CYCLE_LIMIT = 15

# Largest vertex count parse_edge_list accepts.  The header is checked
# before anything is allocated from it, so a header such as "1000000000 0"
# is refused before a billion-row adjacency is allocated.
MAX_VERTICES = 10_000

# Character kinds by code point, read off str itself: 0 an ASCII digit, 1 any
# other token character, 2 space (str.split), 3 line break (str.splitlines).
# No space lies above U+3000, so the last entry stands for every code point
# beyond it.
_KIND = np.ones(0x3002, dtype=np.uint8)
_KIND[ord("0") : ord("9") + 1] = 0
for _c in filter(str.isspace, map(chr, range(0x3001))):
    _KIND[ord(_c)] = 3 if len(f"x{_c}x".splitlines()) == 2 else 2

# The longest token _scan decodes from code points: 10**18 - 1 < 2**63.
_DIGITS = 18

_BIT = (1 << np.arange(8)).astype(np.uint8)  # the bit of each place in a byte


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class Graph:
    """Immutable simple graph; construct through build_graph or parse_edge_list.

    `ends` holds the edges as one read-only, C-contiguous (m, 2) int64 array
    of pairs (u, v) with u < v, strictly increasing in u * n + v; adj[v] is
    the mask of v's neighbours.  `edges` is the same pairs as a tuple of
    tuples, built on first use and kept.
    """

    __slots__ = ("n", "m", "ends", "adj", "_edges", "_degree_classes")

    def __init__(self, n: int, ends: np.ndarray, adj: tuple[int, ...]):
        ends.flags.writeable = False
        self.n = n
        self.m = len(ends)
        self.ends = ends
        self.adj = adj
        self._edges: Optional[tuple[tuple[int, int], ...]] = None
        self._degree_classes: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(zip(self.ends[:, 0].tolist(), self.ends[:, 1].tolist()))
        return self._edges

    @property
    def degree_classes(self) -> tuple[tuple[int, int], ...]:
        """(d, C_d) per distinct degree d, C_d the mask of the degree-d
        vertices; built on first use."""
        if self._degree_classes is None:
            classes: dict[int, int] = {}
            for v, a in enumerate(self.adj):
                classes[a.bit_count()] = classes.get(a.bit_count(), 0) | 1 << v
            self._degree_classes = tuple(classes.items())
        return self._degree_classes

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def delete_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The graph without the given pairs, each of which must be an edge."""
        flat = list(chain.from_iterable(pairs))
        drop = np.array(flat, dtype=np.int64).reshape(-1, 2)
        lo, hi = drop.min(axis=1), drop.max(axis=1)
        keys, own = lo * self.n + hi, self.ends[:, 0] * self.n + self.ends[:, 1]
        missing = ((lo < 0) | (hi >= self.n) | ~np.isin(keys, own)).nonzero()[0]
        if len(missing):
            i = missing[0]
            raise ValueError(f"edge ({flat[2 * i]}, {flat[2 * i + 1]}) not present")
        return _graph(self.n, self.ends[~np.isin(own, keys)])

    def induced(self, vmask: int) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the masked vertices plus the local->global map.
        The full mask returns the graph itself, which is immutable.  Only the
        runs of `ends` rows whose lower end is in the piece are read, and
        relabelling keeps their order, so the kept rows are canonical."""
        if vmask == self.full_mask:
            return self, tuple(range(self.n))
        if vmask & ~self.full_mask:
            raise ValueError("vertex mask out of range")
        verts = np.array(bits_list(vmask), dtype=np.int64)
        local = np.zeros(self.n, dtype=np.int64)  # 1 + local index, 0 outside
        local[verts] = np.arange(1, len(verts) + 1)
        first = self.ends[:, 0]
        stop = first.searchsorted(verts, "right")
        count = stop - first.searchsorted(verts)
        rows = np.repeat(stop - count.cumsum(), count)  # the runs laid end to end
        rows += np.arange(len(rows))
        pairs = local[self.ends[rows]]
        return _graph(len(verts), pairs[pairs[:, 1] > 0] - 1), tuple(verts.tolist())

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _graph(n: int, ends: np.ndarray) -> Graph:
    """The Graph on canonical `ends`, each adj int read off a packed bit row."""
    width = n // 8 + 1
    src, dst = ends.ravel(), ends[:, ::-1].ravel()
    packed = np.zeros(n * width, dtype=np.uint8)
    # each (src, dst) is distinct, so adding the bits of one byte ORs them
    np.add.at(packed, src * width + (dst >> 3), _BIT[dst & 7])
    buf = packed.tobytes()
    adj = [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]
    return Graph(n, ends, tuple(adj))


def _canonical_ends(n: int, flat) -> np.ndarray:
    """Canonical ends of the pairs (flat[0], flat[1]), (flat[2], flat[3]), ...

    The ints or str tokens are read by int() in order, so a bad literal
    raises first; then n < 0, then the first pair out of range or a loop, as
    a loop over the pairs words it.  Duplicates go through one sort.
    """
    try:
        ends = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # such an endpoint is outside 0..n-1 anyway
        ends = np.array([x if 0 <= x < n else -1 for x in map(int, flat)]).reshape(-1, 2)
    if n < 0:
        raise ValueError("n must be nonnegative")
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    wrong = ((lo < 0) | (hi >= n) | (lo == hi)).nonzero()[0]
    if len(wrong):
        i = wrong[0]
        e = (int(flat[2 * i]), int(flat[2 * i + 1]))
        if lo[i] < 0 or hi[i] >= n:
            raise ValueError(f"edge {e} has an endpoint outside 0..{n - 1}")
        raise ValueError(f"edge {e} is a self-loop")
    keys = np.sort(lo * n + hi)
    first = np.ones(len(keys), dtype=bool)  # the first copy of each edge
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    ends = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, max(n, 1), out=(ends[:, 0], ends[:, 1]))
    return ends


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validate, deduplicate and normalize an edge list into a Graph."""
    pairs = list(edge_list)
    if set(map(len, pairs)) - {2}:
        raise ValueError("each edge must be a pair (u, v)")
    return _graph(n, _canonical_ends(n, list(chain.from_iterable(pairs))))


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word: bit pairs, nibbles and bytes are summed
    in place, and one multiply adds the bytes into the top byte."""
    c = np.uint64
    words = words - ((words >> c(1)) & c(0x5555555555555555))
    words = (words & c(0x3333333333333333)) + ((words >> c(2)) & c(0x3333333333333333))
    words = (words + (words >> c(4))) & c(0x0F0F0F0F0F0F0F0F)
    return (words * c(0x0101010101010101)) >> c(56)


def degree_sum(G: Graph, S: int) -> int:
    """Sum of degrees over the masked vertices (internal edges count twice),
    as the sum over degree classes of d * |S & C_d|."""
    if S & ~G.full_mask:
        raise ValueError("vertex mask out of range")
    return sum(d * (S & c).bit_count() for d, c in G.degree_classes)


def edges_between(G: Graph, S: int, T: int) -> int:
    """Ordered-pair edge count |{(u,v) in S x T : uv is an edge}|."""
    if (S | T) & ~G.full_mask:
        raise ValueError("vertex mask out of range")
    return sum((G.adj[u] & T).bit_count() for u in iter_bits(S))


def edges_inside(G: Graph, S: int) -> int:
    """Number of edges with both endpoints in the masked set."""
    return edges_between(G, S, S) // 2


def neighborhood(G: Graph, S: int) -> int:
    """Union of neighborhoods of the masked set, minus the set itself."""
    nb = 0
    for u in iter_bits(S):
        nb |= G.adj[u]
    return nb & ~S


def odd_girth(G: Graph, limit: float = INFINITE_GIRTH) -> float:
    """Length of the shortest odd cycle, or INFINITE_GIRTH if none exists.

    One breadth-first search from every source at once, one bit per source
    (the shortest-cycle argument of Itai and Rodeh, SIAM J. Comput. 1978, run
    bit-parallel).  At depth d, layer[u] is the mask of sources at distance
    exactly d from u and reach[u] the mask of those at distance at most d.
    An edge uw with layer[u] & layer[w] nonzero closes an odd walk of length
    2d + 1 through a common source, and the least such d over all sources is
    the shortest odd cycle, so the first depth with such an edge answers.
    Each depth is one pass over the edges.  Memory is three lists of n n-bit
    ints (layer, reach and the next layer), about 37 MB at MAX_VERTICES.

    It stops before the first depth d with 2d + 1 > limit and returns that
    2d + 1, a lower bound; any value up to the limit is exact.
    """
    n = G.n
    edges = G.edges
    layer = list(G.adj)
    reach = [a | 1 << u for u, a in enumerate(layer)]
    depth = 1
    while 2 * depth + 1 <= limit:
        nxt = [0] * n
        for u, w in edges:
            lu, lw = layer[u], layer[w]
            if lu & lw:
                return 2 * depth + 1
            nxt[u] |= lw
            nxt[w] |= lu
        for u in range(n):
            layer[u] = fresh = nxt[u] & ~reach[u]
            reach[u] |= fresh
        if not any(layer):
            return INFINITE_GIRTH
        depth += 1
    return 2 * depth + 1


def find_clique(G: Graph, r: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least r-clique (as a sorted tuple), or None."""
    if r < 1:
        raise ValueError("r must be positive")
    if r > _CLIQUE_LIMIT:
        raise CapabilityError(f"clique search supports r <= {_CLIQUE_LIMIT}, got {r}")
    if r == 1:
        return (0,) if G.n else None
    cand0 = mask_of(v for v in range(G.n) if G.degree(v) >= r - 1)

    def grow(prefix: tuple[int, ...], cand: int, need: int) -> Optional[tuple[int, ...]]:
        if need == 0:
            return prefix
        if cand.bit_count() < need:
            return None
        for v in iter_bits(cand):
            above = ~((1 << (v + 1)) - 1)
            hit = grow(prefix + (v,), cand & G.adj[v] & above, need - 1)
            if hit is not None:
                return hit
        return None

    return grow((), cand0, r)


def contains_clique(G: Graph, r: int) -> bool:
    return find_clique(G, r) is not None


def find_cycle_of_length(G: Graph, length: int) -> Optional[tuple[int, ...]]:
    """First cycle on exactly `length` vertices under lowest-index DFS order.

    Anchored at each start vertex s in turn; only vertices above s may appear,
    so s is the least vertex of the returned cycle, and its second vertex is
    below its last.  Triangles are found with bit masks; longer cycles by a
    DFS that prunes a partial path when the BFS distance back to s exceeds
    the remaining step budget.  Returns None when no such cycle exists (in
    particular when length > n).
    """
    return _find_cycle(G.adj, length, 0)


def _find_cycle(
    adj: list[int] | tuple[int, ...], length: int, start: int
) -> Optional[tuple[int, ...]]:
    """find_cycle_of_length on a bare adjacency list, trying anchors >= start.

    Skipping the anchors below `start` gives the same cycle whenever none of
    them is the least vertex of a `length`-cycle, which is how the scrub
    resumes after deleting edges.
    """
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    if length > _CYCLE_LIMIT:
        raise CapabilityError(f"cycle search supports length <= {_CYCLE_LIMIT}, got {length}")
    n = len(adj)
    if length > n:
        return None
    if length == 3:
        # The DFS's choice: least anchor s, then the least w1 > s in N(s)
        # with a common neighbour w2 > w1 in N(s), then the least such w2.
        for s in range(start, n):
            rest = adj[s] >> (s + 1) << (s + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                w1 = low.bit_length() - 1
                common = adj[w1] & rest
                if common:
                    return (s, w1, (common & -common).bit_length() - 1)
        return None
    full = (1 << n) - 1
    for s in range(start, n):
        region = full & ~((1 << s) - 1)
        # BFS distances from s within the region
        dist = [-1] * n
        dist[s] = 0
        frontier = 1 << s
        seen = frontier
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= adj[u]
            nxt &= region & ~seen
            for u in iter_bits(nxt):
                dist[u] = d
            seen |= nxt
            frontier = nxt

        path = [s]

        def dfs(u: int, used: int, count: int) -> Optional[tuple[int, ...]]:
            if count == length:
                if adj[u] >> s & 1 and path[1] < path[-1]:
                    return tuple(path)
                return None
            budget = length - count
            for w in iter_bits(adj[u] & region & ~used):
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


def _scan(text: str) -> tuple[str, np.ndarray, Optional[np.ndarray]]:
    """The text without comments; the tokens on each of its lines, numbered
    as str.splitlines() numbers them; and every token's value in order when
    each token is 1 to _DIGITS ASCII digits, else None.

    The values are decoded from the code points, one digit place at a time
    from the right over the tokens that are that long, so no str is made
    per token.  Any other token (a sign, '_', a non-ASCII digit, a longer
    run) leaves the decode to int() on str tokens.
    """
    if "#" in text:  # a comment runs from '#' to the end of its line
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    cp = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    kind = np.take(_KIND, cp, mode="clip")
    solid = kind < 2
    start, stop = solid.copy(), solid.copy()
    start[1:] &= ~solid[:-1]
    stop[:-1] &= ~solid[1:]
    breaks = (kind == 3).nonzero()[0]
    # the "\n" of a "\r\n" pair ends no line of its own
    breaks = breaks[(cp[breaks] != 10) | (cp[breaks - 1] != 13) | (breaks == 0)]
    starts, stops = start.nonzero()[0], stop.nonzero()[0]
    bounds = np.concatenate(([0], starts.searchsorted(breaks), [len(starts)]))
    per_line = bounds[1:] - bounds[:-1]
    size = stops - starts + 1
    if not len(starts) or (kind == 1).any() or size.max() > _DIGITS:
        return text, per_line, None
    value = cp[stops].astype(np.int64) - ord("0")
    for place in range(1, size.max()):
        longer = (size > place).nonzero()[0]
        value[longer] += (cp[stops[longer] - place] - ord("0")) * np.int64(10) ** place
    return text, per_line, value


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus "u v" lines format ('#' comments allowed).

    Raises CapabilityError when the header announces more than MAX_VERTICES
    vertices, and ValueError on any other malformed input, worded for the
    first offending line or edge as a line-by-line parse would find it.
    When every token is 1 to _DIGITS ASCII digits the integers come straight
    from the code points (_scan) and no str is made per token; any other
    text is split into str tokens and converted by int(), with the same
    values and messages.  The pairs are checked and deduplicated by
    _canonical_ends, as build_graph's are.
    """
    text, per_line, values = _scan(text)
    rows = per_line.nonzero()[0]  # the nonempty lines
    counts = per_line[rows]
    tokens = text.split() if values is None else values

    def row(i: int) -> str:
        return text.splitlines()[rows[i]].strip()

    if not len(rows):
        raise ValueError("empty edge-list input")
    if counts[0] != 2:
        raise ValueError(f"header must be 'n m', got {row(0)!r}")
    n, m = int(tokens[0]), int(tokens[1])
    if n > MAX_VERTICES:
        raise CapabilityError(
            f"edge lists are limited to {MAX_VERTICES} vertices (header says {n})"
        )
    if len(rows) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(rows) - 1} lines follow")
    misshapen = (counts[1:] != 2).nonzero()[0]
    if len(misshapen):
        list(map(int, tokens[2 : 2 + 2 * misshapen[0]]))  # a bad literal above raises first
        raise ValueError(f"edge line must be 'u v', got {row(1 + misshapen[0])!r}")
    ends = _canonical_ends(n, tokens[2:])
    del tokens  # str tokens outweigh the graph built from them
    return _graph(n, ends)


def format_edge_list(G: Graph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"
