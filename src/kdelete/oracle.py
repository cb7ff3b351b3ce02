"""Exact references the heuristics are audited against.

min_internal_partition / exact_h solve the minimum-deletion k-partition
problem by branch and bound over canonical assignments (the first vertex
searched pinned to block 0, a new block index only once all earlier ones
appear), pruned by a lower bound kept up to date as vertices are assigned
and undone.  min_internal_partition searches the vertices of positive
degree in index order and leaves those of degree 0, which add nothing to
any count, in block 0, by one rule at every k: the greedy completion seeds
the incumbent and, when it costs 0 (always so at k >= n), is the answer;
otherwise the incumbent is that completion polished by single-vertex moves
(partition.polish).  The search keeps its own stack, so its depth is
bounded by memory, not by the interpreter's recursion limit.  It walks the
top levels one node at a time in Python and, on a search that has entered
more than _ALONE nodes, queues the nodes with at most _R = 16 classes left
and finishes them in chunks with one numpy kernel (_flush) that scores
every child of a chunk at once, in the same depth-first order, so every
value and every returned block list is that of the one-node-at-a-time
search.  exact_h, which reports only the value,
works in this order: k-core, blocks, closed form, twin classes, search.  It
peels G to its k-core (a vertex of degree < k always has a colour free) and
splits the core into its blocks, over which h is additive.  A block of at
most k vertices costs 0, and one of maximum degree at most k is answered in
closed form by Brooks' theorem: 1 if it is K_{k+1} or, at k = 2, an odd
cycle, else 0.  Every other block is searched over its false-twin classes.  False twins
u, v have N(u) = N(v), so they are non-adjacent, and with every other vertex
placed the deletion count is linear in each one's block: moving one into the
other's block never costs more.  Some optimal partition therefore keeps each
class together (Zykov symmetrization), and the search assigns classes whole,
largest degree first; h(G[t], k) = t^2 h(G, k) follows by the
same argument.  True twins (adjacent, equal closed neighbourhoods) are never
merged, since the edge between them breaks the linearity.  exact_h_plain
re-solves the problem by unpruned enumeration for cross-checks.  The search is
metered: every tree node counts against a budget (default 10**7, overridable
via the KDELETE_BUDGET environment variable, which must then be a positive
integer) and overruns raise BudgetExceeded rather than silently stalling.

enumerate_graphs yields every labeled graph on up to 7 vertices, or for
n <= 5 the one with the least edge code in each isomorphism class, found
with one integer matmul over every code and vertex permutation.
mantel_worst_uncovered sweeps all 2^C(n,2) codes at once on numpy arrays to
evaluate worst-case single-neighborhood coverage.
"""

from __future__ import annotations

import os
from itertools import combinations, groupby, permutations, product
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, CapabilityError
from .graphs import _BLOCK, Graph, _graph, bit_rows, edges_inside, iter_bits
from .partition import VertexPartition, greedy_complete, polish

DEFAULT_BUDGET = 10**7
_PLAIN_LIMIT = 2 * 10**7
_ENUM_LIMIT = 7
_ISO_LIMIT = 5
_R = 16  # classes left at the deepest nodes the scalar search enters once it hands off
_ALONE = 200  # nodes the scalar search enters before it hands any to _flush


def _resolve_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("KDELETE_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"KDELETE_BUDGET must be a positive integer (got {env!r})")
    return value


def min_internal_partition(
    G: Graph, k: int, budget: Optional[int] = None
) -> tuple[int, VertexPartition]:
    """Minimum internal-edge count over all k-block partitions, with an
    optimal partition realizing it.

    Branch and bound: the vertices of positive degree are assigned in
    index order, each to an existing block or the first unused one (so each
    partition is enumerated exactly once), and the greedy completion seeds
    the incumbent.  A child is pruned when cost + extra + rest >= best,
    where rest sums, over the vertices u still unassigned, min_i |N(u) & B_i|
    for the blocks B_i after the child's assignment.  Every edge counted in
    rest has exactly one endpoint assigned, so no completion of the child
    costs less.  A pruned subtree therefore holds no leaf strictly below the
    incumbent, the incumbents arrive in the order the bound-free search
    finds them, and the returned blocks are the ones that search returns.

    When the completion polished by single-vertex moves (partition.polish)
    costs p below the completion's own count g, the search prunes at p + 1,
    so leaves costing p are searched too: some leaf costs at most p (the
    polished blocks renumbered by first use), and the first leaf of least
    cost in search order is returned, as the bound-free search returns it
    whenever g exceeds the optimum.  When p = g the completion is the
    incumbent, as before.  Nodes are entered in that order too, though
    not all one at a time (see _branch_and_bound).

    The vertices of degree 0 stay in block 0, and the blocks are still
    those of the bound-free search over every vertex: they add nothing to
    any count, and a leaf that puts one elsewhere has an equal-cost leaf
    that search meets first, with it moved to block 0 and the blocks
    renumbered in order of first use.  So the search has at most k**(n-1)
    leaves for n the vertices of positive degree.  The rule holds for every
    k: at k >= n the greedy completion already costs 0 and its blocks are
    returned, the degree-0 vertices in block 0 as below n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    cost, blocks, _ = _branch_and_bound(G, k, _resolve_budget(budget))
    return cost, VertexPartition(G.n, blocks)


def _over(limit: int, n: int, k: int) -> BudgetExceeded:
    return BudgetExceeded(f"exact search exceeded {limit} nodes (n={n}, k={k})")


def _branch_and_bound(
    G: Graph,
    k: int,
    limit: int,
    spent: int = 0,
    classes: Optional[Sequence[int]] = None,
) -> tuple[int, tuple[int, ...], int]:
    """The search of min_internal_partition on an explicit stack.

    Returns (cost, blocks, nodes), where nodes is spent plus the tree nodes
    entered here; more than limit raises BudgetExceeded.

    classes, when given, is an ordered list of disjoint masks covering G's
    vertices, each a set of false twins (equal open neighbourhoods, so no
    edge inside a class).  The search then puts each class into one block as
    a whole, in list order; the greedy completion still seeds the incumbent.
    With the other vertices placed, the deletion count is linear in each
    twin's block, so moving a twin to its partner's block never raises it:
    some optimal partition keeps every class together (Zykov), and the cost
    returned is h(G, k).  True twins (adjacent, with equal closed
    neighbourhoods) must not share a class, since the edge between them
    breaks that linearity.  With classes only the cost is read: the
    incumbent is the polished completion, the search prunes at its count p,
    and its blocks come back when no leaf costs less.  Without classes every
    vertex of positive degree is its own class in index order, the vertices
    of degree 0 sit in block 0 throughout, the search prunes at p + 1 when
    the polish moved anything (see min_internal_partition) and the returned
    blocks are min_internal_partition's.  Either way the greedy count is the
    completion's added edges, as it starts from empty seeds.  There is no
    other entry rule: an incumbent of cost 0, as at n = 0 or k >= n (each
    vertex then finds an empty block), is returned before any node is
    entered.

    The first _ALONE nodes are walked one at a time.  After that a child
    with at most _R classes left is not descended into but queued, as
    (blocks, cost, used, bound, depth), and the queue goes to _flush in
    search order whenever it holds graphs._BLOCK // (k * _R) nodes, and
    once at the end; a queued node is counted when _flush enters it.  So a
    search over at most _R classes, or of at most _ALONE nodes, never
    leaves this loop.

    State at depth v (classes before v assigned): used/cost/rest at v, the
    block class v holds (-1 before its first child), the tight masks to
    restore on undo, the vertices whose minimum that assignment raised and,
    for a class of more than one vertex, their old minima.  tight[i] holds
    the unassigned u with |N(u) & B_i| = mn[u], the minimum over all k
    blocks (empty blocks count 0).  A class's vertices share their counts,
    so every mask holds whole classes and mn is kept at each class's least
    vertex.  A u in tight[i] alone has its minimum raised by the next
    neighbour put in B_i, and only such u need counting again.  Putting
    class C there raises it to min(mn[u] + |C|, its other blocks' counts):
    exactly mn[u] + 1 when |C| = 1, and at least that otherwise because the
    counts are integers, so the bound adds one per raised vertex.
    """
    n = G.n
    part, greedy = greedy_complete(G, [], k)
    part, best_cost = polish(G, part.assignment(), k) if greedy else (part, 0)
    if classes is None and best_cost < greedy:  # ties too: the first optimal leaf
        best_cost += 1
    best_blocks = part.blocks
    if best_cost == 0:
        return 0, best_blocks, spent
    adj = G.adj
    if classes is None:
        classes = [1 << v for v, a in enumerate(adj) if a]
    class_of = [0] * n  # representative (least vertex) -> its class
    after = 0
    spec = []  # per depth: the class, its size, representative and neighbours
    for c in classes:
        r = (c & -c).bit_length() - 1
        class_of[r] = c
        spec.append((c, c.bit_count(), r, adj[r]))
    later = [0] * len(spec)
    for v in range(len(spec) - 1, -1, -1):
        later[v] = spec[v][3] & after
        after |= spec[v][0]
    blocks = [G.full_mask & ~after] + [0] * (k - 1)  # no class holds a degree-0 vertex
    tight = [after] * k
    mn = [0] * n
    used_at = [0] * n
    cost_at = [0] * n
    rest_at = [0] * n
    alone_at = [0] * n
    held = [-1] * n
    saved: list = [None] * n
    raised = [0] * n
    olds: list = [None] * n
    last = len(spec) - 1
    queue_at = last - _R if 0 < _R <= last else -1  # the nodes below have <= _R classes left
    if queue_at >= 0:
        tail = _tail(spec[queue_at + 1 :], n)
        width = max(1, _BLOCK // (k * _R))
        queue: list = []
    nodes = spent + 1
    if nodes > limit:
        raise _over(limit, n, k)
    v = 0
    while v >= 0:
        cost = cost_at[v]
        used = used_at[v]
        top = used + 1 if used < k else k
        cv, s, r, av = spec[v]
        if v == last:  # every child is a leaf and rest is 0
            for i in range(top):
                extra = (av & blocks[i]).bit_count() * s
                if cost + extra < best_cost:
                    nodes += 1
                    if nodes > limit:
                        raise _over(limit, n, k)
                    best_cost = cost + extra
                    best_blocks = tuple(
                        b | cv if j == i else b for j, b in enumerate(blocks)
                    )
            v -= 1
            continue
        i = held[v]
        if i < 0:  # first visit: which later neighbours sit in one tight block
            one = two = 0
            for t in tight:
                two |= one & t
                one |= t
            alone = alone_at[v] = later[v] & ~two
        else:  # undo v -> i
            blocks[i] ^= cv
            tight = saved[v]
            up = raised[v]
            if up:
                if s == 1:
                    while up:
                        u = (up & -up).bit_length() - 1
                        mn[u] -= 1
                        up ^= class_of[u]
                else:
                    for u, m in olds[v]:
                        mn[u] = m
            alone = alone_at[v]
        base = cost + rest_at[v] - s * mn[r]
        if v >= queue_at >= 0 and nodes - spent > _ALONE:
            for i in range(i + 1, top):
                extra = (av & blocks[i]).bit_count() * s
                bound = base + extra + (alone & tight[i]).bit_count()
                if bound < best_cost:
                    child = tuple(b | cv if j == i else b for j, b in enumerate(blocks))
                    queue.append((child, cost + extra, used + (i == used), bound, v - queue_at))
                    if len(queue) == width:
                        best_cost, best_blocks, nodes = _flush(
                            queue, tail, n, k, width, best_cost, best_blocks, nodes, limit
                        )
                        queue = []
            held[v] = -1
            v -= 1
            continue
        i += 1
        while i < top:
            extra = (av & blocks[i]).bit_count() * s
            if cost + extra < best_cost and (
                base + extra + (alone & tight[i]).bit_count() < best_cost
            ):
                break
            i += 1
        else:
            held[v] = -1
            v -= 1
            continue
        nodes += 1
        if nodes > limit:
            raise _over(limit, n, k)
        held[v] = i
        blocks[i] |= cv
        saved[v] = tight
        tight = tight.copy()
        hit = later[v] & tight[i]
        up = raised[v] = hit & alone
        tight[i] ^= hit ^ up
        rise = up.bit_count()
        if up:  # a class per step: its least vertex u holds mn
            if s == 1:  # the other blocks' counts exceed mn[u] already
                while up:
                    u = (up & -up).bit_length() - 1
                    m = mn[u] + 1
                    mn[u] = m
                    au = adj[u]
                    cu = class_of[u]
                    up ^= cu
                    for j in range(k):
                        if j != i and (au & blocks[j]).bit_count() == m:
                            tight[j] |= cu
            else:
                undo = olds[v] = []
                while up:
                    u = (up & -up).bit_length() - 1
                    old = mn[u]
                    au = adj[u]
                    cu = class_of[u]
                    up ^= cu
                    counts = [(au & b).bit_count() for b in blocks]
                    m = mn[u] = min(counts)
                    undo.append((u, old))
                    rise += (m - old - 1) * cu.bit_count()
                    for j, c in enumerate(counts):
                        if c == m:
                            tight[j] |= cu
                        elif j == i:
                            tight[i] ^= cu
        v += 1
        used_at[v] = used + (i == used)
        cost_at[v] = cost + extra
        rest_at[v] = base - cost + rise
    if queue_at >= 0 and queue:
        best_cost, best_blocks, nodes = _flush(
            queue, tail, n, k, width, best_cost, best_blocks, nodes, limit
        )
    return best_cost, best_blocks, nodes


def _tail(spec: Sequence[tuple], n: int) -> tuple:
    """What _flush reads of the classes it places: their masks, their
    sizes, their representatives' neighbourhoods as bit rows, and
    touch[d, u] = |N(rep_u) & C_d|, all of C_d or none of it, as twins
    share their neighbours."""
    size = np.array([s for _, s, _, _ in spec], dtype=np.int32)
    touch = np.array([[s * (a >> r & 1) for _, _, _, a in spec] for _, s, r, _ in spec],
                     dtype=np.int32)
    return [c for c, _, _, _ in spec], size, bit_rows([a for _, _, _, a in spec], n), touch


def _flush(
    queue: list, tail: tuple, n: int, k: int, width: int,
    best_cost: int, best_blocks: tuple[int, ...], nodes: int, limit: int,
) -> tuple[int, tuple[int, ...], int]:
    """Search the subtrees below the queued nodes in the order of the
    scalar search, and return its (best_cost, best_blocks, nodes).

    A queued node is (blocks, cost, used, bound, depth): depth counts the
    tail classes already placed in its blocks.  The queue holds runs of
    equal depth, deepest first, and each run becomes that depth's tail.
    A frontier of at most width nodes is kept as arrays: load[x, j, u] =
    |N(rep_u) & B_j| over the classes u still to place (read off the bit
    rows of a queued node's blocks, then updated per placement), cost,
    used, the queued node it descends from and the blocks chosen since.
    Each step scores every canonical child (block i <= used) of the
    frontier at once: placing class d in block i adds |C_d| *
    load[x, i, d], and each later class u then costs at least |C_u| *
    min(load[x, i, u] + touch[d, u], min over j != i of load[x, j, u]),
    which is the class's least load lo, raised when i is its one cheapest
    block to at most the second smallest.  For classes of one vertex this
    is the scalar search's bound; for larger classes it is never below it.
    The children, in np.nonzero's row-major order (the scalar search's
    order), become that depth's tail with their bounds; then the deepest
    tail still holding nodes below best_cost gives its first width of them
    as the next frontier, counted as entered.  A tail is tested against
    best_cost each time it is drawn from, as best_cost may have fallen
    since.  So at most one tail per level is held whatever the node count,
    and at width 1, on classes of one vertex, the nodes entered are the
    scalar search's.  At the last class the children are leaves: each that
    beats best_cost and every leaf before it is counted, and the first leaf
    of least cost is kept.  Loads and costs are int32: both stay below 2m.
    """
    masks, size, rows, touch = tail
    last = len(masks) - 1
    slots = np.arange(k)
    # per level: (depth, the parents' frontier, parent, choice, bound) of the
    # nodes not entered yet, deepest on top; a run of queued nodes has no
    # frontier, its parent indexing the queue and its choice unused
    tails: list = []
    start = 0
    for d, run in groupby(q[4] for q in queue):
        stop = start + sum(1 for _ in run)
        mine = np.arange(start, stop)
        tails.append((d, None, mine, mine, np.array([q[3] for q in queue[start:stop]])))
        start = stop
    tails.reverse()
    while True:
        while tails:
            d, front, parent, choice, bound = tails[-1]
            below = bound < best_cost
            parent, choice, bound = parent[below], choice[below], bound[below]
            if len(parent) > width:
                tails[-1] = (d, front, parent[width:], choice[width:], bound[width:])
                parent, choice = parent[:width], choice[:width]
            else:
                tails.pop()
            if len(parent):
                break
        else:
            return best_cost, best_blocks, nodes
        nodes += len(parent)
        if nodes > limit:
            raise _over(limit, n, k)
        if front is not None:
            load, cost, used, root, path = front
            child = load[parent, :, 1:]
            child[np.arange(len(parent)), choice] += touch[d - 1, d:]
            path = path[parent]
            path[:, d - 1] = choice
            front = (
                child,
                cost[parent] + size[d - 1] * load[parent, choice, 0],
                used[parent] + (choice == used[parent]),
                root[parent],
                path,
            )
        else:
            picked = [queue[j] for j in parent.tolist()]
            held = bit_rows([b for q in picked for b in q[0]], n).reshape(len(picked), k, -1)
            load = np.empty((len(picked), k, last + 1 - d), dtype=np.int32)
            for u, row in enumerate(rows[d:]):
                load[:, :, u] = np.bitwise_count(held & row).sum(axis=2)
            front = (
                load,
                np.array([q[1] for q in picked], dtype=np.int32),
                np.array([q[2] for q in picked], dtype=np.int32),
                parent,
                np.zeros((len(picked), last), dtype=np.int32),  # choices from depth d on
            )
        load, cost, used, root, path = front
        if d == last:
            parent, choice = np.nonzero(slots <= used[:, None])
            leaf = cost[parent] + size[d] * load[parent, choice, 0]
            prior = np.minimum.accumulate(np.concatenate(([best_cost], leaf[:-1])))
            beat = int(np.count_nonzero(leaf < prior))
            if beat:
                nodes += beat
                if nodes > limit:
                    raise _over(limit, n, k)
                j = int(np.argmin(leaf))
                best_cost = int(leaf[j])
                blocks, _, _, _, t = queue[root[parent[j]]]
                blocks = list(blocks)
                for i in path[parent[j], t:].tolist() + [int(choice[j])]:
                    blocks[i] |= masks[t]
                    t += 1
                best_blocks = tuple(blocks)
        else:
            rest = load[:, :, 1:]
            touched = touch[d, d + 1 :]
            lo = rest[:, 0]
            second = lo + touched  # min(this, the second smallest load) is all rise needs
            for j in range(1, k):
                second = np.minimum(second, np.maximum(lo, rest[:, j]))
                lo = np.minimum(lo, rest[:, j])
            rise = size[d + 1 :] * (np.minimum(lo + touched, second) - lo)
            bound = (
                (cost + lo @ size[d + 1 :])[:, None]
                + size[d] * load[:, :, 0]
                + np.einsum("xju,xu->xj", rest == lo[:, None, :], rise)
            )
            parent, choice = np.nonzero(slots <= used[:, None])
            tails.append((d + 1, front, parent, choice, bound[parent, choice]))


def twin_classes(G: Graph) -> list[int]:
    """G's false-twin classes (vertices with equal open neighbourhoods) as
    masks, by degree descending, ties to the class with the least vertex.

    Adjacent vertices never share an open neighbourhood (a vertex is not
    its own neighbour), so true twins stay apart.
    """
    width = (G.n + 7) // 8
    first: dict[bytes, int] = {}  # neighbourhood -> least vertex with it
    masks = [0] * G.n
    for v, a in enumerate(G.adj):
        # Keyed by bytes: int hashes are taken mod 2**61 - 1, so masks such
        # as 2**j and 2**(j + 61) collide and a dict of them slows to a crawl.
        r = first.setdefault(a.to_bytes(width, "little"), v)
        masks[r] |= 1 << v
    order = sorted(first.values(), key=lambda r: -G.adj[r].bit_count())
    return [masks[r] for r in order]


def _k_core(adj: Sequence[int], k: int) -> int:
    """Mask of the k-core: vertices of degree < k dropped, repeatedly, until
    none is left.  Each vertex enters the drop list once, when its degree
    first falls below k."""
    deg = [a.bit_count() for a in adj]
    drop = [v for v, d in enumerate(deg) if d < k]
    core = (1 << len(adj)) - 1
    while drop:
        v = drop.pop()
        core ^= 1 << v
        for u in iter_bits(adj[v] & core):
            deg[u] -= 1
            if deg[u] == k - 1:
                drop.append(u)
    return core


def _blocks(adj: Sequence[int], alive: int) -> Iterator[int]:
    """Vertex masks of the blocks (2-connected pieces and bridges) of the
    graph induced on alive, by one depth-first search on an explicit stack
    (Hopcroft and Tarjan); isolated vertices lie in no block.

    Per depth d the stack keeps path[d], before[d] (the vertices seen
    before path[d] was reached) and reach[d] (the neighbours of the part of
    path[d]'s subtree explored so far).  Edges of an undirected DFS tree join a vertex
    only to its ancestors and descendants, so when a child v of p finishes,
    v's subtree has an edge above p exactly when its reach meets the
    vertices seen before p.  If it has none, p cuts off a block: p and
    v's subtree, less the blocks already cut off below (pending holds the
    vertices seen and not yet in a block).
    """
    left = alive
    while left:
        root = left & -left
        left ^= root
        seen = pending = root
        path = [root.bit_length() - 1]
        before = [0]
        reach = [adj[path[0]]]
        while True:
            nxt = adj[path[-1]] & left
            if nxt:  # step down to the least unseen neighbour
                bit = nxt & -nxt
                left ^= bit
                before.append(seen)
                seen |= bit
                pending |= bit
                w = bit.bit_length() - 1
                path.append(w)
                reach.append(adj[w])
                continue
            path.pop()
            mark = before.pop()
            up = reach.pop()
            if not path:
                break
            if up & before[-1]:
                reach[-1] |= up
            else:
                body = pending & ~mark  # v's subtree less the blocks below it
                pending ^= body
                yield body | 1 << path[-1]


def _brooks(adj: Sequence[int], block: int, k: int) -> Optional[int]:
    """h(B, k) of a block B whose maximum degree is at most k, else None.

    By Brooks' theorem such a connected graph is k-colourable unless it is
    K_{k+1} or, at k = 2, an odd cycle; either of those becomes k-colourable
    with one edge deleted.  Those are the blocks with every degree equal to k
    and k + 1 vertices or, at k = 2, an odd number of them (a 2-connected
    2-regular graph is a cycle).  A block of at most k vertices, a bridge
    at k >= 2 among them, has every degree below k and costs 0.
    """
    size = block.bit_count()
    twice = 0
    for u in iter_bits(block):
        d = (adj[u] & block).bit_count()
        if d > k:
            return None
        twice += d
    return int(twice == size * k and (size == k + 1 or k == 2 and size % 2 == 1))


def exact_h(G: Graph, k: int, budget: Optional[int] = None) -> int:
    """Minimum number of edge deletions making G k-colorable.

    Four exact steps.  (1) Peel to the k-core: a vertex of degree < k takes
    a colour missing among its neighbours, so h(G, k) = h(G - v, k).
    (2) Split the core into its blocks: every edge lies in exactly one, and
    colourings of the blocks glue at the cut vertices once one block's
    colours are permuted to agree there, so h is the sum over the blocks.
    (3) A block of maximum degree at most k, which takes in every block of
    at most k vertices, is answered by Brooks' theorem (_brooks).  (4) Every
    other block is searched over its false-twin classes (twin_classes): some
    optimal partition keeps every class in one block, so the search assigns
    classes whole, largest degree first, and the search on a blow-up G[t]
    has as many classes to place as the one on G.  The searches share one
    node budget; the closed forms spend none.  Each search starts from the
    greedy completion polished by single-vertex moves and prunes at its
    count, since only the value is read.
    """
    if k < 1:
        raise ValueError("k must be positive")
    limit = _resolve_budget(budget)
    total = nodes = 0
    adj = G.adj
    for block in _blocks(adj, _k_core(adj, k)):
        closed = _brooks(adj, block, k)
        if closed is not None:
            total += closed
            continue
        piece = G.induced(block)[0]
        cost, _, nodes = _branch_and_bound(piece, k, limit, nodes, twin_classes(piece))
        total += cost
    return total


def exact_h_plain(G: Graph, k: int) -> int:
    """exact_h by unpruned enumeration of all assignments (vertex 0 fixed).

    Deliberately independent of the branch-and-bound path so the two can
    cross-check each other.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = G.n
    if n == 0:
        return 0
    if k ** (n - 1) > _PLAIN_LIMIT:
        raise CapabilityError(
            f"exact_h_plain needs k**(n-1) <= {_PLAIN_LIMIT} (got {k}**{n - 1})"
        )
    edges = G.edges
    best = G.m
    for rest in product(range(k), repeat=n - 1):
        labels = (0,) + rest
        internal = 0
        for u, v in edges:
            if labels[u] == labels[v]:
                internal += 1
                if internal >= best:
                    break
        if internal < best:
            best = internal
            if best == 0:
                break
    return best


def is_k_colorable(G: Graph, k: int) -> bool:
    """Proper k-colorability by canonical backtracking."""
    if k < 1:
        raise ValueError("k must be positive")
    n = G.n
    if k >= n:
        return True
    blocks = [0] * k
    adj = G.adj

    def dfs(v: int, used: int) -> bool:
        if v == n:
            return True
        top = used + 1 if used < k else k
        bit = 1 << v
        av = adj[v]
        for i in range(top):
            if not av & blocks[i]:
                blocks[i] |= bit
                if dfs(v + 1, used + (1 if i == used else 0)):
                    return True
                blocks[i] ^= bit
        return False

    return dfs(0, 0)


def canonical_code(G: Graph) -> int:
    """Smallest edge-bitmask over all vertex relabelings (n <= 7)."""
    n = G.n
    if n > _ENUM_LIMIT:
        raise CapabilityError(f"canonical_code needs n <= {_ENUM_LIMIT}")
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    best = None
    for perm in permutations(range(n)):
        code = 0
        for u, v in G.edges:
            a, b = perm[u], perm[v]
            code |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or code < best:
            best = code
    return best or 0


def enumerate_graphs(n: int, up_to_iso: bool = False) -> Iterator[Graph]:
    """All labeled graphs on n vertices, in edge-bitmask order.

    With up_to_iso=True only the member of each isomorphism class with the
    least code (its canonical_code) is yielded.  One integer matmul of the
    codes' bit rows by the pair images' powers of two gives every code's
    image under every vertex permutation, and a code is kept when none of
    its images is lower.  That is kept to n <= 5: 2^10 codes by 120
    permutations.
    """
    if n < 1 or n > _ENUM_LIMIT:
        raise CapabilityError(f"enumerate_graphs needs 1 <= n <= {_ENUM_LIMIT}")
    if up_to_iso and n > _ISO_LIMIT:
        raise CapabilityError(f"isomorphism filtering needs n <= {_ISO_LIMIT}")
    pairs = list(combinations(range(n), 2))
    # every pair u < v in order, so the rows at a code's set bits are canonical
    every = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    bits = 1 << np.arange(len(pairs))
    codes = range(1 << len(pairs))
    if up_to_iso:
        slot = np.zeros((n, n), dtype=np.int64)  # slot[u, v] = the bit of pair {u, v}
        slot[every[:, 0], every[:, 1]] = slot[every[:, 1], every[:, 0]] = np.arange(len(pairs))
        perms = np.array(list(permutations(range(n))))  # the identity first
        moved = slot[perms[:, every[:, 0]], perms[:, every[:, 1]]]  # [p, i] = pair i moved by p
        # images[c, p] = code c with every pair moved by permutation p
        images = (np.array(codes)[:, None] & bits != 0) @ (1 << moved.T)
        codes = np.flatnonzero(images.min(axis=1) == images[:, 0])
    for code in codes:
        yield _graph(n, every[code & bits != 0])


def min_uncovered_single(G: Graph) -> int:
    """min over vertices v of (m - e(G[N(v)])): the edges a single
    neighborhood must leave behind."""
    if G.n == 0:
        return 0
    return min(G.m - edges_inside(G, G.adj[v]) for v in range(G.n))


def mantel_worst_uncovered(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """max over all labeled graphs on n vertices of min_uncovered_single,
    with a witness graph attaining it.

    Vectorized over all 2^C(n,2) edge codes at once: for each vertex v,
    N(v) in every graph is read off the codes with one shift and OR per
    other vertex, a pair-mask table over vertex masks turns it into the
    edges it spans, and popcounts do the rest.  The extremal value is
    floor(n^2/4), attained by balanced complete bipartite graphs; the
    witness is the first graph in code order that attains it.
    """
    if n < 1 or n > _ENUM_LIMIT:
        raise CapabilityError(f"mantel_worst_uncovered needs 1 <= n <= {_ENUM_LIMIT}")
    pairs = list(combinations(range(n), 2))
    nbits = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    codes = np.arange(1 << nbits, dtype=np.uint32)
    masks = np.arange(1 << n, dtype=np.uint32)
    # pairmask[mask] = bitset of pair indices with both endpoints in mask
    pairmask = np.zeros_like(masks)
    for i, (u, v) in enumerate(pairs):
        pairmask |= (masks >> u & masks >> v & 1) << i
    # uint8 counts: an edge set spanned by N(v) is part of the code, so
    # m_all - inside never wraps
    m_all = np.bitwise_count(codes)
    best_min = m_all
    for v in range(n):
        nbr = np.zeros_like(codes)  # N(v) in every graph
        for u in range(n):
            if u != v:
                nbr |= (codes >> index[min(u, v), max(u, v)] & 1) << u
        best_min = np.minimum(best_min, m_all - np.bitwise_count(codes & pairmask[nbr]))
    worst = int(best_min.max())
    code = int(best_min.argmax())
    witness = tuple(pairs[i] for i in range(nbits) if code >> i & 1)
    return worst, witness
