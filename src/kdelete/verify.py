"""Invariant suite tying every guarantee to an independent check.

build_checks reads one ordered table of checks, each tagged with the first
of three nested size tiers that runs it: "tiny" finishes within a minute,
"small" adds the full structured corpora, "desk" the large clique-free
instances and exhaustive sweeps.  Most checks are one case run by _grid on
every graph of a corpus and every parameter; a corpus is built inside its
check, so only when that check runs.  Each check either returns a detail
string or raises; failures are collected, never swallowed, and the CLI
exits nonzero if any check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import comb
from time import perf_counter
from typing import Callable

from . import corpus
from .bounds import E_LOWER
from .cliquefree import (
    partition_clique_free,
    partition_triangle_free,
    partition_wheel_free,
)
from .constructions import (
    blow_up,
    complete,
    complete_bipartite,
    cycle,
    mixing_check,
    petersen,
    second_eigenvalue,
    spectral_lower_bound,
)
from .cover import exact_u, select_cover
from .graphs import odd_girth
from .maxcut import (
    balanced_group_sizes,
    d_l_complete,
    coarsen_cut,
    local_search_cut,
    max_k_cut_exact,
    maxcut_dense_driver,
    maxcut_odd_cycle_free,
)
from .oddgirth import (
    partition_odd_cycle_free,
    partition_odd_girth,
    scrub_short_odd_cycles,
)
from .oracle import (
    exact_h,
    mantel_worst_uncovered,
    min_internal_partition,
    min_uncovered_single,
)

TIERS = ("tiny", "small", "desk")

# Detail suffixes of the grid checks used at more than one tier.
_COVER = "cover selections under n^2/(e k)"
_TRIANGLE_FREE = "triangle-free runs under n^2/(e k^2)"
_ODD_GIRTH = "odd-girth runs under 4(12r)^r n^2/k^(r+1)"
_SCRUB = "scrub runs clean"
_BLOWUP = "blow-up identities h(G[t],k) = t^2 h(G,k)"
_DUALITY = "exact h = m - maxcut identities"
_DL_PRODUCT = "cut-density products d_l >= d_l(K_k) d_k"
_WHEEL_FREE = "wheel-free runs under the composed ceiling"


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


class CheckFailure(AssertionError):
    pass


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _grid(case, detail, graphs, params) -> str:
    """Runs case(name, G, p) on every (name, G) that graphs() returns and
    every p in params; returns the number of runs before the detail text."""
    count = 0
    for name, G in graphs():
        for p in params:
            case(name, G, p)
            count += 1
    return f"{count} {detail}"


def _cover_bound(name, G, k) -> None:
    sel = select_cover(G, k, strategy="best")
    _need(
        Fraction(sel.uncovered_edges) * E_LOWER * k <= G.n * G.n,
        f"{name}: k={k} left {sel.uncovered_edges} uncovered > n^2/(e k)",
    )


def _cover_vs_exact(name, G, k) -> None:
    best = exact_u(G, k)
    sel = select_cover(G, k, strategy="best")
    _need(
        G.m - sel.uncovered_edges <= best,
        f"{name}: selection covers more than the exact optimum",
    )
    _need(
        Fraction(G.m - best) * E_LOWER * k <= G.n * G.n,
        f"{name}: even exact coverage misses n^2/(e k) at k={k}",
    )


def _duality(name, G, k) -> None:
    h = exact_h(G, k)
    cut = max_k_cut_exact(G, k)
    _need(
        h == G.m - cut.crossing,
        f"{name}: h={h} but m - maxcut = {G.m - cut.crossing} at k={k}",
    )
    ls = local_search_cut(G, k, seed=5)
    _need(ls.crossing <= cut.crossing, f"{name}: local search beat exact")


def _heuristic_above_h(name, G, k) -> None:
    h = exact_h(G, k)
    rep = partition_triangle_free(G, k)
    _need(
        rep.deleted >= h,
        f"{name}: heuristic deleted {rep.deleted} < exact {h} at k={k}",
    )


def _meets_ceiling(partitioner):
    """The case that partitioner(G, k) meets its proved ceiling."""
    return lambda name, G, k: partitioner(G, k).require()


def _odd_girth(name, G, k, r=2) -> None:
    rep = partition_odd_girth(G, k, r, verify=True).require()
    leftover = rep.meta.get("leftover_bound")
    if leftover is not None:
        _need(
            Fraction(rep.meta["added"]) <= leftover,
            f"{name}: completion exceeded leftover/k at k={k}",
        )


def _scrubber(name, G, r) -> None:
    rep = scrub_short_odd_cycles(G, r)
    _need(rep.holds(G.n), f"{name}: scrub removed more than 100 r^4 n^(3/2)")
    _need(
        odd_girth(rep.graph, 2 * r + 1) > 2 * r + 1,
        f"{name}: scrubbed graph still has a short odd cycle",
    )
    full = partition_odd_cycle_free(G, 4, r, verify=True).require()
    _need(
        full.partition.internal_count(G) <= full.deleted,
        f"{name}: deletion accounting missed internal edges",
    )


def _blowup_identity(name, G, k) -> None:
    # exact_h keeps false twins together, which is this identity's own
    # argument, so the blown-up side is searched vertex by vertex instead.
    base = exact_h(G, k)
    big = min_internal_partition(blow_up(G, 2), k)[0]
    _need(big == 4 * base, f"{name}: h(G[2],{k})={big} != 4*{base}")


def _check_dl_closed_form(max_k=7) -> str:
    count = 0
    for k in range(2, max_k + 1):
        for l in range(2, k):
            cut = max_k_cut_exact(complete(k), l)
            _need(
                Fraction(cut.crossing, comb(k, 2)) == d_l_complete(l, k),
                f"d_{l}(K_{k}) closed form disagrees with brute force",
            )
            count += 1
    return f"{count} d_l(K_k) closed-form values match brute force"


def _coarsening(name, G, pair) -> None:
    k, l = pair
    fine = local_search_cut(G, k, seed=3)
    coarse = coarsen_cut(G, fine.partition, l)
    _need(
        coarse.crossing * comb(k, 2)
        >= (comb(k, 2) - sum(comb(s, 2) for s in balanced_group_sizes(k, l)))
        * fine.crossing,
        f"{name}: coarsening lost more than d_l(K_k) at (k,l)=({k},{l})",
    )


def _dl_product(name, G, pair) -> None:
    """d_l(G) >= d_l(K_k) * d_k(G), realized through coarsen_cut."""
    k, l = pair
    fine = max_k_cut_exact(G, k)
    coarse = coarsen_cut(G, fine.partition, l)
    exact_l = max_k_cut_exact(G, l)
    _need(
        exact_l.crossing >= coarse.crossing,
        f"{name}: exact l-cut below a realized l-cut?!",
    )
    lhs = Fraction(exact_l.crossing, G.m)
    rhs = d_l_complete(l, k) * Fraction(fine.crossing, G.m)
    _need(lhs >= rhs, f"{name}: d_{l} < d_{l}(K_{k}) d_{k} at ({k},{l})")


def _split_driver(name, G, r) -> None:
    cut = maxcut_odd_cycle_free(G, r)
    _need(2 * cut.crossing >= G.m, f"{name}: split driver below m/2")


def _check_spectral() -> str:
    P = petersen()
    prof = second_eigenvalue(P)
    _need(abs(prof.lam - 2.0) <= 1e-6, f"Petersen lambda {prof.lam} != 2")
    _need(prof.residual <= 1e-6, f"Petersen eigenpair residual {prof.residual}")
    cert = spectral_lower_bound(P, 2, prof)
    _need(cert.value <= exact_h(P, 2), "spectral bound exceeded exact h")
    mix = mixing_check(cycle(5))
    _need(mix.min_slack >= -1e-6, f"C5 mixing slack {mix.min_slack}")
    for name, G in corpus.regular_suite():
        prof = second_eigenvalue(G)
        _need(prof.d is not None, f"{name}: regular graph not detected")
        _need(prof.residual <= 1e-6, f"{name}: residual {prof.residual}")
        for k in (2, 3):
            cert = spectral_lower_bound(G, k, prof)
            _need(
                cert.value <= exact_h(G, k),
                f"{name}: spectral bound above exact h at k={k}",
            )
    return "spectral certificates sound on the regular suite"


def _check_driver_bipartite() -> str:
    G = complete_bipartite(89, 89)
    cut = maxcut_dense_driver(G, 1)
    _need(
        4 * (cut.meta["k"] - 1) * cut.crossing
        >= G.m * (2 * cut.meta["k"] - 1),
        "driver missed the dense-regime floor on K_{89,89}",
    )
    _need(2 * cut.crossing >= G.m, "driver fell below m/2")
    return f"K_89,89 driver crossing {cut.crossing}/{G.m} with k={cut.meta['k']}"


def _check_single_cover_worst(ns) -> str:
    details = []
    for n in ns:
        worst, witness = mantel_worst_uncovered(n)
        _need(
            worst == (n * n) // 4,
            f"worst single-center uncovered on n={n} is {worst}, not floor(n^2/4)",
        )
        B = corpus.bipartite_equality_witness(n)
        _need(
            min_uncovered_single(B) == (n * n) // 4,
            f"balanced bipartite on n={n} does not meet floor(n^2/4)",
        )
        details.append(f"n={n}:{worst}")
    return "worst one-center coverage " + ", ".join(details)


def build_checks(tier: str, seed: int = 0) -> list[tuple[str, Callable[[], str]]]:
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}")

    def take(suite, count=None):
        """The graphs() of a grid check: suite's first count graphs, or all."""
        return lambda: suite()[:count]

    # built once, by the first check that runs on them
    n8 = cache(partial(corpus.random_n8_suite, seed))
    covers = cache(partial(corpus.cover_suite, seed))
    triangle_free = partial(corpus.triangle_free_suite, seed)
    girth7 = partial(corpus.odd_girth7_suite, seed)
    wheel_free = _meets_ceiling(partial(partition_wheel_free, r=1))
    products = ((3, 2), (4, 2), (4, 3))
    rows: list[tuple[str, str, Callable[[], str]]] = [
        ("cover-bound", "tiny",
         lambda: _grid(_cover_bound, _COVER, take(covers, 40), (1, 2, 4))),
        ("cover-vs-exact", "tiny",
         lambda: _grid(_cover_vs_exact, "selections sandwiched by exact_u", lambda: [
             ("c5", cycle(5)), ("k4", complete(4)),
             ("k33", complete_bipartite(3, 3)), ("petersen", petersen())], (1, 2))),
        ("duality-exact", "tiny",
         lambda: _grid(_duality, _DUALITY, take(n8, 10), (2, 3))),
        ("heuristic-above-h", "tiny",
         lambda: _grid(_heuristic_above_h, "heuristic runs at or above exact h",
                       take(n8, 10), (2, 3))),
        ("triangle-free-small", "tiny",
         lambda: _grid(_meets_ceiling(partial(partition_triangle_free, verify=True)),
                       _TRIANGLE_FREE, take(triangle_free, 6), (2, 3))),
        ("odd-girth-small", "tiny",
         lambda: _grid(_odd_girth, _ODD_GIRTH, take(girth7, 4), (2, 4))),
        ("scrubber-small", "tiny",
         lambda: _grid(_scrubber, _SCRUB, take(corpus.c5_free_scrub_suite, 4), (2,))),
        ("blowup-identity-small", "tiny",
         lambda: _grid(_blowup_identity, _BLOWUP, take(corpus.blowup_suite, 8), (2,))),
        ("dl-closed-form", "tiny", lambda: _check_dl_closed_form(6)),
        ("coarsen-share", "tiny",
         lambda: _grid(_coarsening, "coarsenings kept the d_l(K_k) share",
                       take(n8, 6), ((4, 2), (6, 3)))),
        ("spectral", "tiny", _check_spectral),
        ("driver-bipartite", "tiny", _check_driver_bipartite),
        ("wheel-free-small", "tiny",
         lambda: _grid(wheel_free, _WHEEL_FREE,
                       lambda: [("c5[4]", blow_up(cycle(5), 4))], (6,))),
        ("cover-bound-full", "small",
         lambda: _grid(_cover_bound, _COVER, covers, (1, 2, 4, 8))),
        ("triangle-free-full", "small",
         lambda: _grid(_meets_ceiling(partition_triangle_free), _TRIANGLE_FREE,
                       triangle_free, (2, 3, 4, 6))),
        ("odd-girth-full", "small",
         lambda: _grid(_odd_girth, _ODD_GIRTH, girth7, (2, 4, 8))),
        ("scrubber-full", "small",
         lambda: _grid(_scrubber, _SCRUB, corpus.c5_free_scrub_suite, (2,))),
        ("blowup-identity-full", "small",
         lambda: _grid(_blowup_identity, _BLOWUP, corpus.blowup_suite, (2, 3))),
        ("duality-full", "small",
         lambda: _grid(_duality, _DUALITY, take(n8, 40), (2, 3))),
        ("dl-product", "small",
         lambda: _grid(_dl_product, _DL_PRODUCT, take(n8, 30), products)),
        ("dl-closed-form-full", "small", lambda: _check_dl_closed_form(7)),
        ("split-driver", "small",
         lambda: _grid(_split_driver, "split-driver runs at or above m/2", girth7, (2,))),
        ("single-cover-worst-small", "small",
         lambda: _check_single_cover_worst((4, 5, 6))),
        ("clique-free-theorem", "desk",
         lambda: _grid(_meets_ceiling(partial(partition_clique_free, r=4)),
                       "clique-free runs under (5/3) 4^(r-3) n^2 / k^((r-1)/(r-2))",
                       corpus.k4_free_suite, (66, 128, 256))),
        ("single-cover-worst", "desk", lambda: _check_single_cover_worst((4, 5, 6, 7))),
        ("dl-product-full", "desk",
         lambda: _grid(_dl_product, _DL_PRODUCT, n8, products)),
        ("wheel-free-full", "desk",
         lambda: _grid(wheel_free, _WHEEL_FREE,
                       lambda: [("c5[20]", blow_up(cycle(5), 20)),
                                ("k100-100", complete_bipartite(100, 100))],
                       (16, 40))),
    ]
    return [(name, thunk) for name, first, thunk in rows
            if TIERS.index(first) <= TIERS.index(tier)]


def run_checks(tier: str = "tiny", seed: int = 0) -> list[CheckResult]:
    results = []
    for name, fn in build_checks(tier, seed):
        t0 = perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, round(perf_counter() - t0, 3)))
    return results
