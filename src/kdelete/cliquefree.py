"""Partitioners for graphs with no r-clique and no odd wheel.

Triangle-free graphs have independent neighborhoods, so a good edge cover by
k neighborhoods (cover.select_cover) doubles as a seed partition: completing
it greedily deletes at most uncovered/k <= n^2/(e k^2) edges.

For r >= 4 the graph is cut into t pieces of size at most 2n/t, each living
inside a neighborhood (hence free of (r-1)-cliques), and each piece is
partitioned recursively into s = t^(r-3) blocks; t is chosen even and equal
to roughly k^(1/(r-2)) so t * s <= k blocks come out, and the same t recurs
at every level.  The recursion grounds in the triangle-free case and yields
at most (5/3) 4^(r-3) n^2 / k^((r-1)/(r-2)) deletions; tiny k falls back to
a plain balanced completion, which already meets that ceiling there.

An odd-wheel-free graph has (2r+1)-cycle-free neighborhoods, so the same
divide step feeds the odd-girth engine instead of recursing on cliques.

All ceilings are exact rationals (fractional exponents are floored with
integer root arithmetic, which loses nothing against integer deletion
counts); guarantee_holds on the returned report is the exact theorem test.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import E_LOWER, ceil_mul_sqrt, floor_power_bound, iroot
from .cover import even_parts, select_cover
from .errors import CapabilityError, CliqueFound, InvariantViolation, TriangleFound, WheelFound
from .graphs import Graph, find_clique, find_cycle_of_length
from .oddgirth import partition_odd_cycle_free
from .partition import (
    BoundReport,
    VertexPartition,
    balanced_partition,
    compose_partition,
    greedy_complete,
    trivial_distinct,
)

_MAX_CLIQUE_ORDER = 8


def verify_clique_free(G: Graph, r: int) -> None:
    """Raise TriangleFound / CliqueFound with the lexicographically least
    witness if G contains an r-clique."""
    clique = find_clique(G, r)
    if clique is not None:
        if r == 3:
            raise TriangleFound("graph contains a triangle", witness=clique)
        raise CliqueFound(f"graph contains a {r}-clique", witness=clique)


def verify_wheel_free(G: Graph, r: int) -> None:
    """Raise WheelFound with (hub, rim cycle) if some neighborhood contains
    a (2r+1)-cycle, i.e. G contains the odd wheel on 2r+2 vertices."""
    for v in range(G.n):
        H, verts = G.induced(G.adj[v])
        cyc = find_cycle_of_length(H, 2 * r + 1)
        if cyc is not None:
            rim = tuple(verts[u] for u in cyc)
            raise WheelFound(
                f"vertex {v} hubs an odd wheel with rim length {2 * r + 1}",
                witness=(v, rim),
            )


def partition_triangle_free(
    G: Graph,
    k: int,
    verify: bool = False,
) -> BoundReport:
    """k-partition of a triangle-free graph deleting at most n^2/(e k^2).

    The k disjoint neighborhood pieces of a cover selection are independent
    sets here, so seeding the greedy completion with them deletes only the
    completion edges: at most uncovered/k, and the expectation-guided cover
    keeps uncovered <= n^2/(e k); select_cover(G, k) never leaves more than
    it does.  The report is honest on any input; the ceiling is guaranteed
    for triangle-free graphs.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if verify:
        verify_clique_free(G, 3)
    n = G.n
    meta = {"strategy": "best"}
    if k >= n:
        partition = trivial_distinct(n, k)
    else:
        sel = select_cover(G, k)
        partition, added = greedy_complete(G, sel.disjoint_sets, k=k)
        if added * k > sel.uncovered_edges:
            raise InvariantViolation("completion exceeded the uncovered-edge average")
        meta.update(
            centers=list(sel.centers), uncovered_edges=sel.uncovered_edges, added=added
        )
    return BoundReport(
        partition=partition,
        deleted=partition.internal_count(G),
        bound=Fraction(n * n) / (E_LOWER * k * k),
        bound_formula="n^2/(e*k^2)",
        precondition_checked=verify,
        meta=meta,
    )


def _divide(G: Graph, k: int, chunks: int, inner) -> tuple[VertexPartition, dict]:
    """The divide step shared by the clique- and wheel-free partitioners:
    partition each piece of even_parts(G, chunks) as inner(induced piece),
    then compose and complete over k blocks.  Returns the partition and the
    divide-path meta.
    """
    parts = even_parts(G, chunks)
    reports = [inner(G.induced(piece)[0]) for piece in parts.disjoint_sets]
    partition, added = compose_partition(
        G, parts.disjoint_sets, [rep.partition for rep in reports], k=k
    )
    if added * k > parts.uncovered_edges:
        raise InvariantViolation("completion exceeded the uncovered-edge average")
    return partition, {
        "path": "divide",
        "uncovered_edges": parts.uncovered_edges,
        "added": added,
        "inner_deleted": [rep.deleted for rep in reports],
    }


def partition_clique_free(
    G: Graph,
    k: int,
    r: int,
    verify: bool = False,
) -> BoundReport:
    """k-partition of a K_r-free graph (3 <= r <= 8) deleting at most
    (5/3) 4^(r-3) n^2 / k^((r-1)/(r-2)) edges.

    r = 3 is the triangle-free construction (its e-based ceiling is tighter
    than the theorem form, so the report keeps it).  For r >= 4 and
    k <= (2r)^(r-2) a balanced completion deletes at most n^2/(2k), which
    already sits under the ceiling on that range; larger k uses the divide
    step with an even t ~ k^(1/(r-2)): 2*(t/2) neighborhood chunks of size
    at most 2n/t, each K_{r-1}-free, each partitioned recursively into
    t^(r-3) blocks, then composed and completed over all k blocks.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 3 <= r <= _MAX_CLIQUE_ORDER:
        raise CapabilityError(
            f"clique-free partitioning is implemented for 3 <= r <= "
            f"{_MAX_CLIQUE_ORDER} (got r={r})"
        )
    if r == 3:
        return partition_triangle_free(G, k, verify=verify)
    if verify:
        verify_clique_free(G, r)
    n = G.n
    if k >= n:
        partition = trivial_distinct(n, k)
        meta = {"path": "trivial"}
    elif k <= (2 * r) ** (r - 2):
        partition, added = balanced_partition(G, k)
        meta = {"path": "balanced", "added": added}
    else:
        # k > (2r)^(r-2) forces t >= 2r, so t stays even and at least 8
        # here, t**(r-2) <= k, and the inner instances never take the
        # balanced path before reaching r = 3.
        t = 2 * (iroot(k, r - 2) // 2)
        s = t ** (r - 3)
        partition, meta = _divide(
            G, k, t // 2, lambda H: partition_clique_free(H, s, r - 1)
        )
        meta.update(t=t, s=s)
    deleted = partition.internal_count(G)
    if meta["path"] == "balanced" and deleted * 2 * k > n * n:
        raise InvariantViolation("balanced completion exceeded n^2/(2k)")
    meta["r"] = r
    coeff = Fraction(5 * 4 ** (r - 3), 3) * n * n
    return BoundReport(
        partition=partition,
        deleted=deleted,
        bound=Fraction(floor_power_bound(coeff, k, r - 1, r - 2)),
        bound_formula="(5/3)*4^(r-3)*n^2/k^((r-1)/(r-2))",
        precondition_checked=verify,
        meta=meta,
    )


def partition_wheel_free(
    G: Graph,
    k: int,
    r: int,
    verify: bool = False,
) -> BoundReport:
    """k-partition of a graph with no odd wheel W_{2r+1} (hub joined to a
    (2r+1)-cycle; r = 1 makes that K_4).

    With j = floor((k/2)^(1/(r+1))), s = j and t = j^r, the graph is covered
    by 2t neighborhood chunks of size at most n/t; each chunk induces a
    (2r+1)-cycle-free graph (its center would hub a wheel otherwise) and is
    partitioned by the odd-cycle-free engine into s blocks, giving
    2st = 2j^(r+1) <= k blocks before completion.  The reported ceiling

        2n^2/(e s t^2) + t * (16 (12r)^r n^2/(t^2 s^(r+1))
                              + ceil(100 r^4 sqrt(8 n^3 t))/t^2)

    dominates the realized chain with room to spare (the chunk count and
    sizes are a factor of two better than it assumes).  k = 1 keeps the
    whole graph in one block under the trivial ceiling n^2/2.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if r < 1:
        raise ValueError("r must be positive")
    if verify:
        verify_wheel_free(G, r)
    n = G.n
    if k == 1:
        partition, deleted = VertexPartition(n, (G.full_mask,)), G.m
        meta = {"path": "single"}
        bound, formula = Fraction(n * n, 2), "n^2/2"
    else:
        j = iroot(k // 2, r + 1)
        s, t = j, j**r
        if k >= n:
            partition, deleted = trivial_distinct(n, k), 0
            meta = {"path": "trivial"}
        else:
            partition, meta = _divide(
                G, k, t, lambda H: partition_odd_cycle_free(H, s, r)
            )
            # Every scrubbed edge and every block-internal edge of the pieces
            # is charged, so this dominates the partition's internal count.
            deleted = sum(meta["inner_deleted"]) + meta["added"]
            if partition.internal_count(G) > deleted:
                raise InvariantViolation("deletion accounting missed internal edges")
            meta.update(s=s, t=t)
        meta["j"] = j
        quad = 16 * (12 * r) ** r * Fraction(n * n, t * t * s ** (r + 1))
        scrub = Fraction(ceil_mul_sqrt(100 * r**4, 8 * n**3 * t), t * t)
        bound = 2 * Fraction(n * n) / (E_LOWER * s * t * t) + t * (quad + scrub)
        formula = (
            "2n^2/(e*s*t^2) + t*(16*(12r)^r*n^2/(t^2*s^(r+1))"
            " + ceil(100*r^4*sqrt(8*n^3*t))/t^2)"
        )
    meta["r"] = r
    return BoundReport(
        partition=partition,
        deleted=deleted,
        bound=bound,
        bound_formula=formula,
        precondition_checked=verify,
        meta=meta,
    )
