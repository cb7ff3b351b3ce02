"""Acceptance gate: one test per headline guarantee, run on fixed corpora.

Every test here checks an end-to-end promise of the library on a frozen
input suite, with exact rational arithmetic wherever the guarantee itself
is rational.  Each test finishes by printing a single ``PASS criterion N``
line (visible with ``pytest -rA`` / on failure) and asserting a wall-clock
ceiling, so a regression in either correctness or asymptotic behaviour
shows up as one red line in ``pytest -v``.

Numeric tolerances are pinned here and nowhere else:

* rational guarantees (cover sizes, deletion bounds, cut densities) are
  compared exactly via ``fractions.Fraction``;
* the only floating-point slack is for the spectrum: eigenvalue
  residual <= 1e-6 and mixing slack >= -1e-6.
"""

import time
from fractions import Fraction

from kdelete.bounds import E_LOWER, decay_step_holds
from kdelete.cliquefree import partition_clique_free, partition_triangle_free
from kdelete.constructions import (
    blow_up,
    complete_bipartite,
    cycle,
    mixing_check,
    second_eigenvalue,
    spectral_lower_bound,
)
from kdelete.corpus import (
    bipartite_equality_witness,
    blowup_suite,
    c5_free_scrub_suite,
    cover_suite,
    k4_free_suite,
    odd_girth7_suite,
    random_n8_suite,
    regular_suite,
    triangle_free_suite,
)
from kdelete.cover import select_cover
from kdelete.graphs import odd_girth
from kdelete.maxcut import (
    d_l_complete,
    local_search_cut,
    max_k_cut_exact,
    maxcut_dense_driver,
)
from kdelete.oddgirth import (
    partition_odd_cycle_free,
    partition_odd_girth,
    scrub_short_odd_cycles,
)
from kdelete.oracle import (
    exact_h,
    mantel_worst_uncovered,
    min_uncovered_single,
)
from kdelete.partition import balanced_partition

RESIDUAL_TOL = 1e-6
MIXING_TOL = -1e-6


class _clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def _stamp(num, clk, limit, detail):
    assert clk.seconds <= limit, (
        f"criterion {num} took {clk.seconds:.1f}s, ceiling {limit:.0f}s"
    )
    print(f"PASS criterion {num:2d} [{clk.seconds:6.1f}s / {limit:.0f}s] {detail}")


def test_criterion_01_single_neighborhood_worst_case():
    # The worst graph on n vertices leaves exactly floor(n^2/4) edges
    # uncovered by its best single closed neighborhood, and balanced
    # complete bipartite graphs attain it.
    with _clock() as clk:
        for n in range(1, 8):
            worst, witness = mantel_worst_uncovered(n)
            assert worst == n * n // 4, n
            assert all(0 <= a < b < n for a, b in witness)
        for n in (4, 5, 6, 7):
            G = bipartite_equality_witness(n)
            assert G.n == n
            assert min_uncovered_single(G) == n * n // 4, n
    _stamp(1, clk, 120.0, "worst single-cover residue == floor(n^2/4) for n <= 7")


def test_criterion_02_cover_residue_within_quarter_e():
    # Greedy/expectation cover: on 200 random graphs and k in {1,2,4,8},
    # the edges left uncovered by the k chosen neighborhoods stay below
    # n^2/(e*k), rationally, using a certified lower rounding of e.
    with _clock() as clk:
        suite = cover_suite(seed=0)
        assert len(suite) == 200
        worst_share = Fraction(0)
        for name, G in suite:
            for k in (1, 2, 4, 8):
                sel = select_cover(G, k, strategy="best", seed=7)
                sel.validate(G)
                ceiling = Fraction(G.n * G.n) / (E_LOWER * k)
                left = Fraction(sel.uncovered_edges)
                assert left <= ceiling, (name, k)
                if ceiling:
                    worst_share = max(worst_share, left / ceiling)
    _stamp(
        2,
        clk,
        60.0,
        f"800 covers, uncovered <= n^2/(e*k); worst share {float(worst_share):.3f}",
    )


def test_criterion_03_triangle_free_deletion_bound():
    # Triangle-free partitioner: deletions <= n^2/(e*k^2) on the whole
    # triangle-free corpus, for k in {2,3,4,6}, checked exactly.
    with _clock() as clk:
        count = 0
        for name, G in triangle_free_suite():
            for k in (2, 3, 4, 6):
                rep = partition_triangle_free(G, k)
                assert rep.guarantee_holds, (name, k)
                ceiling = Fraction(G.n * G.n) / (E_LOWER * k * k)
                assert Fraction(rep.deleted) <= ceiling, (name, k)
                assert rep.partition.internal_count(G) <= rep.deleted
                count += 1
    _stamp(3, clk, 120.0, f"{count} runs, deletions <= n^2/(e*k^2) exactly")


def test_criterion_04_k4_free_explicit_constant():
    # K4-free partitioner at large k: deletions <= (20/3) * n^2 * k^(-3/2)
    # on graphs up to n=500, verified in integers by squaring both sides.
    with _clock() as clk:
        count = 0
        for name, G in k4_free_suite():
            for k in (66, 128, 256):
                rep = partition_clique_free(G, k, 4)
                assert rep.guarantee_holds, (name, k)
                d = rep.deleted
                lhs = 9 * d * d * k**3
                rhs = (20 * G.n * G.n) ** 2
                assert lhs <= rhs, (name, k, d)
                count += 1
    _stamp(4, clk, 300.0, f"{count} runs up to n=500, deletions <= (20/3) n^2 k^(-3/2)")


def test_criterion_05_odd_girth_partition_and_decay():
    # Odd-girth-7 partitioner (r=2): the deletion bound takes the exact
    # closed form 4*(12r)^r * n^2 / k^(r+1); the peeled degree-sum
    # trajectory obeys the per-step decay inequality; and the final
    # greedy completion adds at most trajectory[-1]/k edges.
    with _clock() as clk:
        for name, G in odd_girth7_suite(seed=0):
            for k in (2, 4, 8):
                rep = partition_odd_girth(G, k, 2)
                assert rep.guarantee_holds, (name, k)
                assert rep.bound == Fraction(4 * 24**2 * G.n * G.n, k**3)
                traj = rep.meta["trajectory"]
                # k >= n short-circuits peeling; otherwise one entry per block
                assert 1 <= len(traj) <= k + 1
                for d_prev, d_next in zip(traj, traj[1:]):
                    assert decay_step_holds(d_prev, d_next, G.n, 2), (name, k)
                if "added" in rep.meta:
                    assert rep.meta["added"] * k <= traj[-1], (name, k)
                else:  # k >= n: one vertex per block, nothing deleted
                    assert rep.deleted == 0, (name, k)
    _stamp(5, clk, 120.0, "r=2 bound == 4*(24)^2 n^2/k^3; decay + leftover hold")


def test_criterion_06_scrubber_budget_and_clean_output():
    # Short-odd-cycle scrubber at r=2: removes <= 100*r^4 * n^(3/2) edges
    # (integer-squared comparison) and the result has no C3 or C5.
    with _clock() as clk:
        for name, G in c5_free_scrub_suite():
            assert G.n <= 300
            rep = scrub_short_odd_cycles(G, 2)
            assert rep.holds(G.n), name
            assert rep.removed**2 <= (100 * 2**4) ** 2 * G.n**3, name
            assert odd_girth(rep.graph) > 5, name
    _stamp(6, clk, 120.0, "scrub removes <= 1600 n^(3/2) edges, output odd-girth > 5")


def test_criterion_07_blowup_multiplies_deletions():
    # Duplicating every vertex multiplies the minimum deletion count by
    # exactly t^2 = 4: checked against the exact oracle on 30 graphs.
    with _clock() as clk:
        suite = blowup_suite()
        assert len(suite) == 30
        for name, G in suite:
            H = blow_up(G, 2)
            for k in (2, 3):
                assert exact_h(H, k) == 4 * exact_h(G, k), (name, k)
    _stamp(7, clk, 180.0, "h(G[2], k) == 4 h(G, k) on 30 graphs, k in {2,3}")


def test_criterion_08_oracle_duality_and_heuristic_soundness():
    # h(G,k) + maxcut_k(G) == m on every graph, and no heuristic ever
    # reports fewer deletions than the oracle minimum.
    with _clock() as clk:
        for name, G in random_n8_suite(seed=0)[:40]:
            for k in (2, 3):
                h = exact_h(G, k)
                cut = max_k_cut_exact(G, k)
                assert h == G.m - cut.crossing, (name, k)
                loc = local_search_cut(G, k, seed=3)
                assert G.m - loc.crossing >= h, (name, k)
                part, deleted = balanced_partition(G, k)
                assert deleted >= h, (name, k)
                assert part.internal_count(G) == deleted
        # structured partitioners against the oracle on small clean inputs
        for G in (cycle(5), cycle(7), blow_up(cycle(5), 2), complete_bipartite(4, 4)):
            for k in (2, 3):
                rep = partition_triangle_free(G, k)
                assert rep.deleted >= exact_h(G, k)
    _stamp(8, clk, 180.0, "h == m - maxcut and heuristics >= oracle on 40+4 graphs")


def test_criterion_09_cut_density_composes():
    # Exact max-l-cut >= d_l(K_k) * exact max-k-cut on 100 random graphs,
    # for (k,l) in {(3,2),(4,2),(4,3)}, entirely in rationals.
    with _clock() as clk:
        suite = random_n8_suite(seed=0)
        assert len(suite) == 100
        for name, G in suite:
            cuts = {
                k: Fraction(max_k_cut_exact(G, k).crossing) for k in (2, 3, 4)
            }
            for k, l in ((3, 2), (4, 2), (4, 3)):
                assert cuts[l] >= d_l_complete(l, k) * cuts[k], (name, k, l)
    _stamp(9, clk, 180.0, "maxcut_l >= d_l(K_k) * maxcut_k on 100 graphs, 3 pairs")


def test_criterion_10_dense_driver_crossing_floors():
    # The dense driver always crosses at least m/2; whenever its internal
    # partition deleted at most m/(2k) edges, the cut clears the stronger
    # floor m/2 + m/(4(k-1)).  Both inequalities are checked in integers.
    with _clock() as clk:
        pool = [(name, G) for name, G in odd_girth7_suite(seed=0)]
        pool.append(("k8989", complete_bipartite(89, 89)))
        pool.append(("c30", cycle(30)))
        pool.append(("bip60", bipartite_equality_witness(60)))
        strong = 0
        for name, G in pool:
            cut = maxcut_dense_driver(G, r=2, seed=0)
            cut.validate(G)
            m = G.m
            assert 2 * cut.crossing >= m, name
            k = cut.meta["k"]
            m0 = cut.meta["deleted_by_partitioner"]
            if k >= 2 and 2 * k * m0 <= m:
                assert 4 * (k - 1) * cut.crossing >= m * (2 * k - 1), (name, k)
                strong += 1
        assert strong >= 3  # the conditional branch must actually fire
    _stamp(10, clk, 120.0, f"driver floors hold; strong floor fired {strong}x")


def test_criterion_11_spectral_certificates_stay_below_truth():
    # Spectral lower-bound certificates never exceed the exact minimum,
    # and expander-mixing spot checks never go negative beyond tolerance.
    with _clock() as clk:
        small = [(name, G) for name, G in regular_suite() if G.n <= 10]
        assert len(small) >= 15
        for name, G in small:
            prof = second_eigenvalue(G)
            assert prof.d is not None
            assert prof.residual <= RESIDUAL_TOL, name
            for k in (2, 3):
                cert = spectral_lower_bound(G, k, prof)
                assert cert.value <= exact_h(G, k), (name, k)
            mix = mixing_check(G, prof, seed=2)
            assert mix.min_slack >= MIXING_TOL, name
            if G.n <= 6:
                assert mix.exhaustive, name
    _stamp(11, clk, 120.0, f"{len(small)} regular graphs: certificate <= exact h")


def test_criterion_12_scaling_trend_informational():
    # The quadratic-in-n / inverse-power-in-k scaling is a theorem about
    # n -> infinity; at desk scale we can only confirm that measured
    # deletions never exceed the proved ceilings and report the worst
    # ratio.  At k = 2 the blow-up identity gives h(C[t], 2) = t^2 for an
    # odd cycle C, so those points must also delete at least t^2: the gate
    # sees a partitioner that deletes too little as well as too much.
    # Criteria 1-11 carry the substantive checks.
    with _clock() as clk:
        points = [
            (t, k, partition_triangle_free(blow_up(cycle(5), t), k))
            for t in (4, 8, 16, 32) for k in (2, 3, 4, 6)
        ] + [
            (t, k, partition_odd_cycle_free(blow_up(cycle(7), t), k, 2))
            for t in (3, 6, 9) for k in (2, 4, 8)
        ]
        worst_ratio = Fraction(0)
        for t, k, rep in points:
            assert Fraction(rep.deleted) <= rep.bound, (t, k, rep.deleted)
            if k == 2:
                assert rep.deleted >= t * t, (t, rep.deleted)
            worst_ratio = max(worst_ratio, Fraction(rep.deleted) / rep.bound)
    _stamp(
        12,
        clk,
        300.0,
        f"{len(points)} points, deleted <= bound exactly, k = 2 deletes >= t^2 "
        f"(worst deleted/bound {float(worst_ratio):.3f})",
    )
