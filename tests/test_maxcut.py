import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdelete import constructions as cons
from kdelete.constructions import random_graph
from kdelete.errors import CapabilityError, InvariantViolation
from kdelete.graphs import bits_list, build_graph, edges_between, edges_inside, iter_bits, mask_of
from kdelete import maxcut
from kdelete.maxcut import (
    _COMPOSE_LABEL_LIMIT,
    CutResult,
    _ce_grouping,
    _grouping_count,
    _grouping_scores,
    _nth_grouping,
    balanced_group_sizes,
    coarsen_cut,
    d_l_complete,
    local_search_cut,
    max_k_cut_exact,
    maxcut_dense_driver,
    maxcut_odd_cycle_free,
    surplus_compose,
)
from kdelete.oracle import exact_h
from kdelete.partition import VertexPartition, compose_partition

small_graph = st.builds(
    random_graph,
    n=st.integers(2, 10),
    p=st.sampled_from([0.3, 0.6]),
    seed=st.integers(0, 2**32),
)


def _random_labelling(G, k, seed):
    """A seeded uniform k-labelling of G's vertices; any k-partition is a
    valid coarsen_cut input."""
    rng = random.Random(seed)
    blocks = [0] * k
    for v in range(G.n):
        blocks[rng.randrange(k)] |= 1 << v
    return VertexPartition(G.n, tuple(blocks))


def test_exact_matches_duality(petersen):
    cut = max_k_cut_exact(petersen, 2).validate(petersen)
    assert cut.crossing == 12
    assert petersen.m - cut.crossing == exact_h(petersen, 2)


def test_exact_rejects_oversized_state_space():
    with pytest.raises(CapabilityError):
        max_k_cut_exact(random_graph(40, 0.5, seed=0), 4)


@pytest.mark.parametrize("k", [2, 3])
def test_exact_searches_the_core_beside_many_isolated_vertices(petersen, k):
    # 110 isolated vertices ahead of a Petersen graph: k**(n-1) over all 120
    # vertices is past the cap, over the 10 of positive degree it is not.
    G = build_graph(120, [(u + 110, v + 110) for u, v in petersen.edges])
    cut = max_k_cut_exact(G, k).validate(G)
    assert cut.crossing == max_k_cut_exact(petersen, k).crossing
    assert cut.partition.blocks[0] & mask_of(range(110)) == mask_of(range(110))


def test_exact_labels_do_not_depend_on_the_isolated_vertex_count():
    # k**(n-1) over all 17 vertices is past the cap, over all 5 it is not;
    # the path's labels are the same either way, at k < n and k >= n alike,
    # with every degree-0 vertex in block 0.
    for k in (3, 4, 5, 6):
        labels = [max_k_cut_exact(build_graph(3 + iso, [(0, 1), (1, 2)]), k).partition.labels()
                  for iso in (2, 14)]
        assert labels[0][:3].tolist() == labels[1][:3].tolist() == [0, 1, 0]
        assert not labels[0][3:].any() and not labels[1][3:].any()
    labels = max_k_cut_exact(build_graph(10_000, [(0, 1)]), 10_000).partition.labels()
    assert labels[:2].tolist() == [0, 1] and not labels[2:].any()


def test_exact_keeps_the_plain_search_where_the_old_cap_held():
    # k**(n-1) over all 14 vertices is under the cap; degree-0 vertices ahead
    # of the first edge still leave the Petersen labels as they were, and the
    # cut is optimal.
    P = cons.petersen()
    G = build_graph(14, [(u + 4, v + 4) for u, v in P.edges])
    for k in (2, 3):
        cut = max_k_cut_exact(G, k).validate(G)
        labels = cut.partition.labels()
        assert not labels[:4].any()
        assert labels[4:].tolist() == max_k_cut_exact(P, k).partition.labels().tolist()
        assert G.m - cut.crossing == exact_h(P, k)


@given(small_graph, st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=40)
def test_local_search_floor(G, k, seed):
    cut = local_search_cut(G, k, starts=2, seed=seed).validate(G)
    assert cut.crossing * k >= G.m * (k - 1)
    assert cut.crossing <= max_k_cut_exact(G, k).crossing


def test_local_search_is_deterministic(petersen):
    a = local_search_cut(petersen, 3, starts=4, seed=9)
    b = local_search_cut(petersen, 3, starts=4, seed=9)
    assert a.partition.blocks == b.partition.blocks


def test_balanced_group_sizes():
    assert balanced_group_sizes(7, 3) == (3, 2, 2)
    assert balanced_group_sizes(4, 2) == (2, 2)
    assert balanced_group_sizes(5, 5) == (1, 1, 1, 1, 1)


def test_d_l_complete_closed_form_against_enumeration():
    # d_l(K_k) = maxcut_l(K_k) / C(k,2), brute-forced
    for k in range(2, 8):
        for l in range(2, k + 1):
            K = cons.complete(k)
            brute = max_k_cut_exact(K, l).crossing
            assert d_l_complete(l, k) == Fraction(brute, comb(k, 2))
    assert d_l_complete(5, 3) == 1  # l >= k keeps everything
    assert d_l_complete(1, 4) == 0  # one group keeps nothing
    with pytest.raises(ValueError):
        d_l_complete(2, 1)
    with pytest.raises(ValueError):
        d_l_complete(0, 4)


def test_d2_of_complete_k_is_the_driver_constant():
    # d_2(K_k) = ceil(k/2)*floor(k/2)/C(k,2); for even k that is k/(2(k-1))
    for k in (4, 6, 8, 178):
        assert d_l_complete(2, k) == Fraction(k, 2 * (k - 1))


# The conditional-expectation greedy as it stood before its three R' cases
# became one score; kept verbatim so the groups can be compared exactly.
def _ce_grouping_reference(w: list[list[int]], sizes: tuple[int, ...]) -> list[list[int]]:
    """Conditional-expectation greedy: place each label in the group that
    minimizes the expected internal weight of a random equitable completion.

    All expectations are compared after scaling by R'(R'-1) > 0 (R' labels
    left after the current one), which clears every denominator and keeps
    the comparison in exact integers; the final grouping is therefore at
    most the initial expectation, i.e. internal <= sum C(s_i,2)/C(k,2) * W.
    """
    k = len(w)
    l = len(sizes)
    groups: list[list[int]] = [[] for _ in range(l)]
    cap = list(sizes)
    row_total = [sum(w[u]) for u in range(k)]
    # W_g(v): weight from unassigned v to group g; S_g = sum over unassigned;
    # U2 = total weight between unassigned pairs.
    wg = [[0] * l for _ in range(k)]
    s_g = [0] * l
    u2 = sum(row_total) // 2
    unassigned = set(range(k))
    for u in range(k):
        unassigned.discard(u)
        rprime = len(unassigned)
        row_u = sum(w[u][v] for v in unassigned)
        best_g, best_score = -1, None
        for g in range(l):
            if cap[g] == 0:
                continue
            if rprime >= 2:
                term_assigned = 0
                term_pairs = 0
                for gp in range(l):
                    cp = cap[gp] - (1 if gp == g else 0)
                    term_assigned += cp * (s_g[gp] - wg[u][gp])
                    term_pairs += cp * (cp - 1)
                score = (
                    wg[u][g] * rprime * (rprime - 1)
                    + (rprime - 1) * term_assigned
                    + (rprime - 1) * (cap[g] - 1) * row_u
                    + (u2 - row_u) * term_pairs
                )
            elif rprime == 1:
                v = next(iter(unassigned))
                gv = g
                for gp in range(l):
                    cp = cap[gp] - (1 if gp == g else 0)
                    if cp > 0:
                        gv = gp
                        break
                score = wg[u][g] + wg[v][gv] + (w[u][v] if gv == g else 0)
            else:
                score = wg[u][g]
            if best_score is None or score < best_score:
                best_g, best_score = g, score
        groups[best_g].append(u)
        cap[best_g] -= 1
        for v in unassigned:
            wg[v][best_g] += w[u][v]
        s_g = [
            sum(wg[v][g] for v in unassigned) for g in range(l)
        ]
        u2 -= row_u
    return groups


@st.composite
def weight_matrices(draw):
    k = draw(st.integers(1, 14))
    w = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            w[a][b] = w[b][a] = draw(st.integers(0, 50))
    return w


@given(weight_matrices())
@settings(max_examples=150)
def test_ce_grouping_matches_reference(w):
    k = len(w)
    for l in range(1, k + 1):
        sizes = balanced_group_sizes(k, l)
        assert _ce_grouping(np.array(w, dtype=np.int64), sizes) == _ce_grouping_reference(w, sizes)


def test_ce_grouping_matches_reference_on_the_driver_fine_cut(monkeypatch):
    calls = []

    def recording(w, sizes):
        calls.append((w, sizes))
        return _ce_grouping(w, sizes)

    monkeypatch.setattr(maxcut, "_ce_grouping", recording)
    G = cons.blow_up(cons.cycle(7), 50)
    assert maxcut_dense_driver(G, 2).meta["k"] == 234
    [(w, sizes)] = calls
    assert len(w) == 234
    assert _ce_grouping(w, sizes) == _ce_grouping_reference(w.tolist(), sizes)


# The exhaustive scan as it stood before it was scored on arrays: a Python
# generator of the groupings and a Python sum per grouping, kept so the
# order and the scores can be compared exactly.
def _enumerate_groupings_reference(k: int, sizes: tuple[int, ...]):
    def rec(remaining: tuple[int, ...], needed: tuple[int, ...]):
        if not needed:
            yield []
            return
        anchor = remaining[0]
        rest = remaining[1:]
        seen_sizes = set()
        for idx, s in enumerate(needed):
            if s in seen_sizes:
                continue
            seen_sizes.add(s)
            left_needed = needed[:idx] + needed[idx + 1 :]
            for mates in combinations(rest, s - 1):
                group = [anchor, *mates]
                taken = set(mates)
                rem = tuple(v for v in rest if v not in taken)
                for tail in rec(rem, left_needed):
                    yield [group, *tail]

    yield from rec(tuple(range(k)), tuple(sorted(sizes, reverse=True)))


def _grouping_internal_reference(w: list[list[int]], groups) -> int:
    return sum(w[a][b] for g in groups for i, a in enumerate(g) for b in g[i + 1 :])


@given(weight_matrices())
@settings(max_examples=40)
def test_grouping_scores_follow_the_generator(w):
    k = len(w)
    arr = np.array(w, dtype=np.int64).reshape(k, k)
    for l in range(1, k + 1):
        sizes = balanced_group_sizes(k, l)
        if _grouping_count(k, sizes) > 2000:
            continue
        want = list(_enumerate_groupings_reference(k, sizes))
        scores = _grouping_scores(arr, np.arange(k)[None, :], sizes)
        assert scores.shape == (1, len(want)) == (1, _grouping_count(k, sizes))
        assert scores[0].tolist() == [_grouping_internal_reference(w, g) for g in want]
        for i in {0, len(want) // 2, len(want) - 1, int(scores[0].argmin())}:
            assert _nth_grouping(k, sizes, i) == want[i]


@pytest.mark.parametrize("k, sizes", [(9, (3, 3, 3)), (10, (4, 3, 3)), (10, (2, 2, 2, 2, 1, 1))])
def test_nth_grouping_walks_the_generator(k, sizes):
    for i, grouping in enumerate(_enumerate_groupings_reference(k, sizes)):
        assert _nth_grouping(k, sizes, i) == grouping


def test_driver_runs_one_local_search_on_g_when_the_core_is_all_of_it(monkeypatch):
    G = cons.blow_up(cons.cycle(7), 50)
    on_g = []

    def counting(H, *args, **kwargs):
        on_g.append(H is G)
        return local_search_cut(H, *args, **kwargs)

    monkeypatch.setattr(maxcut, "local_search_cut", counting)
    cut = maxcut_odd_cycle_free(G, 2, seed=0)
    assert cut.meta["core_size"] == G.n
    assert on_g.count(True) == 1


def test_driver_coarsening_ce_alone_and_strict_exhaustive_win():
    # c7 x 8: k = 56, too many groupings to enumerate, CE alone
    assert maxcut_dense_driver(cons.blow_up(cons.cycle(7), 8), 2).method == (
        "driver/coarsen-ce"
    )
    # the exhaustive scan beats CE strictly at k = 10
    G = random_graph(10, 0.5, seed=3)
    assert maxcut_dense_driver(G, 2).method == "driver/coarsen-exhaustive"


@given(small_graph, st.integers(0, 2**32))
@settings(max_examples=40)
def test_coarsen_share_holds(G, seed):
    fine = _random_labelling(G, 4, seed)
    fine_crossing = fine.crossing_count(G)
    cut = coarsen_cut(G, fine, 2).validate(G)
    assert Fraction(cut.crossing) >= d_l_complete(2, 4) * fine_crossing


@given(small_graph)
@settings(max_examples=25)
def test_coarsen_exhaustive_is_optimal_over_groupings(G):
    """With enumeration enabled for small k the result can only improve, so
    it must at least match the conditional-expectation baseline."""
    fine = _random_labelling(G, 5, 1)
    base = coarsen_cut(G, fine, 2)
    assert base.crossing >= d_l_complete(2, 5) * fine.crossing_count(G)


def test_coarsen_identity_when_l_geq_k(petersen):
    fine = _random_labelling(petersen, 3, 0)
    cut = coarsen_cut(petersen, fine, 3)
    assert cut.partition.blocks == fine.blocks
    padded = coarsen_cut(petersen, fine, 5)
    assert padded.partition.k == 5
    assert padded.crossing == fine.crossing_count(petersen)


def test_surplus_compose_on_disjoint_union():
    G = cons.disjoint_union([cons.cycle(5), cons.cycle(5)])
    piece = max_k_cut_exact(cons.cycle(5), 2).partition
    out = surplus_compose(
        G, [mask_of(range(5)), mask_of(range(5, 10))], [piece, piece], 2
    ).validate(G)
    assert out.crossing == 8  # both pieces keep their optimum, no cross edges


def test_surplus_compose_respects_share_with_cross_edges(petersen):
    outer, inner = mask_of(range(5)), mask_of(range(5, 10))
    Ho, _ = petersen.induced(outer)
    Hi, _ = petersen.induced(inner)
    parts = [max_k_cut_exact(Ho, 2).partition, max_k_cut_exact(Hi, 2).partition]
    out = surplus_compose(petersen, [outer, inner], parts, 2).validate(petersen)
    inner_crossing = sum(p.crossing_count(h) for p, h in [(parts[0], Ho), (parts[1], Hi)])
    cross = petersen.m - Ho.m - Hi.m
    assert (out.crossing - inner_crossing) * 2 >= cross


def test_surplus_compose_refuses_large_l(petersen):
    parts = [VertexPartition(10, tuple([petersen.full_mask] + [0] * 8))]
    with pytest.raises(CapabilityError):
        surplus_compose(petersen, [petersen.full_mask], parts, 9)


def _reference_lift_blocks(verts, local: VertexPartition) -> list[int]:
    """partition.lift_blocks before the label arrays, verbatim but for its
    name: a test-only reference for the stitch below."""
    if local.n != len(verts):
        raise ValueError("partition size does not match the vertex list")
    out = []
    for b in local.blocks:
        g = 0
        for i in iter_bits(b):
            g |= 1 << verts[i]
        out.append(g)
    return out


def _reference_surplus_compose(
    G,
    pieces: list[int],
    parts: list[VertexPartition],
    l: int,
) -> CutResult:
    """surplus_compose before the label arrays, verbatim but for its name
    and lift_blocks': a test-only reference for the differential test."""
    if l < 1:
        raise ValueError("l must be positive")
    if l > _COMPOSE_LABEL_LIMIT:
        raise CapabilityError(
            f"label alignment enumerates l! permutations; needs l <= "
            f"{_COMPOSE_LABEL_LIMIT}"
        )
    if len(pieces) != len(parts):
        raise ValueError("pieces and parts are misaligned")
    union = 0
    for mask in pieces:
        if mask & union:
            raise ValueError("pieces overlap")
        union |= mask
    if union != G.full_mask:
        raise ValueError("pieces must cover every vertex")
    totals = [0] * l
    inner_crossing = 0
    inner_edges = 0
    for mask, part in zip(pieces, parts):
        if part.k != l:
            raise ValueError("every piece needs exactly l blocks")
        verts = bits_list(mask)
        lifted = _reference_lift_blocks(verts, part)
        piece_edges = edges_inside(G, mask)
        inner_edges += piece_edges
        inner_crossing += piece_edges - sum(edges_inside(G, b) for b in lifted)
        if not any(totals):  # nothing placed yet: keep this piece's labels
            totals = lifted
            continue
        match = [
            [edges_between(G, lb, tb) for tb in totals] for lb in lifted
        ]
        best_perm = min(
            permutations(range(l)),
            key=lambda perm: sum(match[j][perm[j]] for j in range(l)),
        )
        for j, target in enumerate(best_perm):
            totals[target] |= lifted[j]
    part = VertexPartition(G.n, tuple(totals))
    crossing = part.crossing_count(G)
    if (crossing - inner_crossing) * l < (l - 1) * (G.m - inner_edges):
        raise InvariantViolation("label alignment fell below the (1-1/l) share")
    return CutResult(
        partition=part,
        crossing=crossing,
        method="surplus-compose",
        meta={
            "l": l,
            "pieces": len(pieces),
            "inner_crossing": inner_crossing,
            "inner_edges": inner_edges,
        },
    )


def _random_pieces(rng, n, count, l):
    """count disjoint pieces covering 0..n-1, a few of them empty, each with
    a uniform l-labelling of its vertices (which leaves some blocks empty)."""
    used = rng.sample(range(count), rng.randint(1, count))
    owner = [rng.choice(used) for _ in range(n)]
    pieces = [mask_of(v for v in range(n) if owner[v] == i) for i in range(count)]
    parts = []
    for mask in pieces:
        blocks = [0] * l
        for j in range(mask.bit_count()):
            blocks[rng.randrange(l)] |= 1 << j
        parts.append(VertexPartition(mask.bit_count(), tuple(blocks)))
    return pieces, parts


def test_surplus_compose_matches_reference():
    # 1-4 pieces (some empty), l = 1-4, random graphs dense enough that the
    # pieces share edges and permutations tie; the blocks, crossing, method
    # and meta must all be the reference's.
    rng = random.Random(24)
    aligned = 0
    for case in range(600):
        n = rng.randint(0, 16)
        G = random_graph(n, rng.choice([0.2, 0.5, 0.9]), seed=case)
        pieces, parts = _random_pieces(rng, n, rng.randint(1, 4), rng.randint(1, 4))
        l = parts[0].k
        got = surplus_compose(G, pieces, parts, l).validate(G)
        want = _reference_surplus_compose(G, pieces, parts, l)
        assert (got.partition, got.crossing, got.method, got.meta) == (
            want.partition, want.crossing, want.method, want.meta), case
        aligned += got.meta["inner_edges"] < G.m
    assert aligned > 150  # a third of the cases align against edges between pieces


def test_piece_partitions_of_the_wrong_size_are_refused(petersen):
    five = VertexPartition(5, (0b11, 0b11100))
    cases = [  # pieces, parts, the refusal
        ([mask_of(range(5)), mask_of(range(5, 10))],
         [five, VertexPartition(4, (0b11, 0b1100))],
         "partition size does not match the vertex list"),
        ([mask_of(range(5)), mask_of(range(5, 10))], [five], "pieces and parts are misaligned"),
        ([mask_of(range(5)), mask_of(range(4, 9)), mask_of([9])],
         [five, five, VertexPartition(1, (1, 0))], "pieces overlap"),
    ]
    for pieces, parts, message in cases:
        for stitch in (surplus_compose, _reference_surplus_compose):
            with pytest.raises(ValueError, match=message):
                stitch(petersen, pieces, parts, 2)
        with pytest.raises(ValueError, match=message):
            compose_partition(petersen, pieces, parts, k=4)
    # vertex 10 is past the graph: compose_partition used to fail on mismatched arrays
    pieces = [mask_of(range(5)), mask_of(range(5, 11))]
    parts = [five, VertexPartition(6, (0b111, 0b111000))]
    with pytest.raises(ValueError, match="pieces must lie inside the vertex set"):
        surplus_compose(petersen, pieces, parts, 2)
    with pytest.raises(ValueError, match="pieces must lie inside the vertex set"):
        compose_partition(petersen, pieces, parts, k=4)


def test_cut_result_validate_catches_lies(petersen):
    cut = local_search_cut(petersen, 2)
    bad = CutResult(cut.partition, cut.crossing + 1, "forged")
    with pytest.raises(InvariantViolation):
        bad.validate(petersen)


@pytest.mark.parametrize("t", [2, 5, 9])
def test_driver_unconditional_floor(t):
    G = cons.blow_up(cons.cycle(7), t)
    cut = maxcut_odd_cycle_free(G, 2, seed=0).validate(G)
    assert 2 * cut.crossing >= G.m
    assert cut.meta["branch"] in ("dense-core", "sparse")
    assert cut.meta["surplus"] == Fraction(2 * cut.crossing - G.m, 2)


def test_driver_dense_chain_on_balanced_bipartite():
    G = cons.complete_bipartite(89, 89)
    cut = maxcut_odd_cycle_free(G, 2, seed=0).validate(G)
    assert cut.crossing == G.m  # bipartite: the driver finds the full cut
    inner = maxcut_dense_driver(G, 2, seed=0)
    k = inner.meta["k"]
    m0 = inner.meta["deleted_by_partitioner"]
    if 2 * k * m0 <= G.m:  # dense regime realized
        assert 4 * (k - 1) * inner.crossing >= G.m * (2 * k - 1)


def test_driver_sparse_branch_on_a_path():
    G = cons.cycle(30)  # 2-regular, core is empty at this m
    cut = maxcut_odd_cycle_free(G, 2, seed=1).validate(G)
    assert cut.meta["branch"] == "sparse"
    assert 2 * cut.crossing >= G.m


def test_dense_driver_meta_records_clamp():
    G = cons.cycle(9)  # tiny m forces the k formula to clamp at n
    cut = maxcut_dense_driver(G, 2, seed=0)
    assert cut.meta["clamped"] in (True, False)
    assert 2 * cut.crossing >= G.m
