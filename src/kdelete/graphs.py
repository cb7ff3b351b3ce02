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

The numpy kernels take masks as bit rows, made by bit_rows and read back by
row_bits: one row of (n + 63) // 64 little-endian uint64 words per mask, bit
v of the row (bit v % 64 of word v // 64) set <=> vertex v in the set, so an
AND of rows is an intersection and np.bitwise_count of it a popcount.
label_masks is the one writer of this layout from label arrays: it sets
each vertex's bit in the row of its label and reads the rows off as ints,
for _graph's adjacency and every partition built from labels.
common_neighbours ANDs the rows of each edge's ends to count the neighbours
they share.

bfs_layers is the one breadth-first walk: it yields the layers of a search
from a start mask inside an allowed mask, and the odd-girth peel and the
cycle search's distance prune read their layers off it.

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
from typing import Iterable, Iterator, Optional, Sequence

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

# Entries per block of the numpy block loops (edges x adjacency words or
# bits, directed edges x limbs): bounds their scratch memory at a few hundred
# kilobytes whatever the graph.
_BLOCK = 1 << 16


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


def bit_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """(len(masks), (n + 63) // 64) read-only "<u8" bit rows of masks below 2**n."""
    words = (n + 63) // 64
    raw = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), words)


def label_masks(count: int, n: int, labels: np.ndarray, vertices: np.ndarray) -> list[int]:
    """count masks below 2**n, mask i holding vertices[j] for each j with
    labels[j] == i, from int64 arrays of distinct (label, vertex) pairs,
    each mask written into its bit row as bytes and read off as one int."""
    width = 8 * ((n + 63) // 64)  # bytes per bit row
    packed = np.zeros(count * width, dtype=np.uint8)
    # each (label, vertex) pair is distinct, so adding the bits of one byte ORs them
    np.add.at(packed, labels * width + (vertices >> 3), _BIT[vertices & 7])
    buf = packed.tobytes()
    return [int.from_bytes(buf[i * width : (i + 1) * width], "little") for i in range(count)]


def row_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 uint8 bits of vertices 0..n-1 along the last axis of bit rows."""
    return np.unpackbits(rows.view(np.uint8), axis=-1, count=n, bitorder="little")


def common_neighbours(rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """int64 |N(x) & N(y)| for each pair (x, y) of ends, rows being the
    adjacency as bit rows.  The rows of the two ends are ANDed _BLOCK words
    at a time and counted with np.bitwise_count; a word's count is a uint8,
    and a product with int64 ones adds each row's counts as int64, since a
    row's total can pass 255."""
    words = rows.shape[1]
    common = np.zeros(len(ends), dtype=np.int64)
    step = max(1, _BLOCK // max(1, words))
    for lo in range(0, len(ends), step):
        pairs = ends[lo : lo + step]
        both = np.take(rows, pairs[:, 0], axis=0) & np.take(rows, pairs[:, 1], axis=0)
        common[lo : lo + step] = np.bitwise_count(both) @ np.ones(words, dtype=np.int64)
    return common


def bfs_layers(adj: Sequence[int], start: int, allowed: int) -> Iterator[int]:
    """Breadth-first layers as masks: first `start`, then each time the
    vertices of `allowed` adjacent to the last layer and in no earlier one.
    Stops at the first empty layer."""
    layer = seen = start
    while layer:
        yield layer
        grown = 0
        for v in iter_bits(layer):
            grown |= adj[v]
        layer = grown & allowed & ~seen
        seen |= layer


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
    """The Graph on canonical `ends`: adj[u] holds v for each row (u, v) or (v, u)."""
    return Graph(n, ends, tuple(label_masks(n, n, ends.ravel(), ends[:, ::-1].ravel())))


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
    below its last.  Triangles come from the edge walk of _triangles; longer
    cycles from the DFS of _cycles.  Returns None when no such cycle exists
    (in particular when length > n).
    """
    _check_cycle_length(length)
    if length == 3:
        return next(_triangles(G, G.adj), None)
    return next(_cycles(G.adj, length), None)


def _check_cycle_length(length: int) -> None:
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    if length > _CYCLE_LIMIT:
        raise CapabilityError(f"cycle search supports length <= {_CYCLE_LIMIT}, got {length}")


def _triangles(G: Graph, adj: list[int] | tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """The triangles (s, w1, w2), s < w1 < w2, in the DFS's order: least s,
    then least w1, then least w2.

    adj is G.adj, or a copy of it that the caller deletes edges from between
    triangles.  The walk visits the rows (s, w1) of G.ends whose ends have a
    common neighbour in G (common_neighbours), in order, and re-checks each
    on adj, taking the least w2 > w1 adjacent to both.  Deleting edges never
    creates a triangle, so a row that had none when it was passed has none
    later, and each triangle yielded is the first one left in adj.
    """
    common = common_neighbours(bit_rows(G.adj, G.n), G.ends)
    for s, w1 in G.ends[common > 0].tolist():
        both = (adj[s] & adj[w1]) >> (w1 + 1)
        if both and adj[s] >> w1 & 1:
            yield s, w1, w1 + (both & -both).bit_length()


def _cycles(adj: list[int] | tuple[int, ...], length: int) -> Iterator[tuple[int, ...]]:
    """The cycles on `length` vertices in lowest-index DFS order, one at a
    time: a DFS from each anchor s prunes a partial path when the BFS
    distance back to s exceeds the remaining step budget; that never cuts a
    cycle through s in either direction, and second vertices go in
    increasing order, so the first full path found has the lower second
    vertex.

    The caller may delete edges from adj in place between cycles.  The walk
    resumes at the last cycle's anchor (its least vertex): no lower anchor
    had a cycle of this length before the deletion, and deleting edges
    creates none.
    """
    n = len(adj)
    if length > n:
        return
    full = (1 << n) - 1
    for s in range(n):
        region = full & ~((1 << s) - 1)
        while True:
            # BFS distances from s within the region
            dist = [-1] * n
            for d, layer in enumerate(bfs_layers(adj, 1 << s, region)):
                for u in iter_bits(layer):
                    dist[u] = d

            path = [s]

            def dfs(u: int, used: int, count: int) -> Optional[tuple[int, ...]]:
                if count == length:
                    # u was admitted at distance 1, so the path closes at s.
                    return tuple(path)
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
            if found is None:
                break
            yield found


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
