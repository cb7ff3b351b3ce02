import json
import re

import pytest

import kdelete.verify as V
from kdelete import corpus
from kdelete.maxcut import CutResult
from kdelete.partition import VertexPartition
from kdelete.serialize import dumps
from kdelete.verify import CheckFailure, CheckResult, build_checks, run_checks


# Every desk check's (name, detail) at seed 0, in run order; the tiny tier
# runs the first 13 and the small tier the first 23.
DESK_AT_SEED_0 = [
    ("cover-bound", "120 cover selections under n^2/(e k)"),
    ("cover-vs-exact", "8 selections sandwiched by exact_u"),
    ("duality-exact", "20 exact h = m - maxcut identities"),
    ("heuristic-above-h", "20 heuristic runs at or above exact h"),
    ("triangle-free-small", "12 triangle-free runs under n^2/(e k^2)"),
    ("odd-girth-small", "8 odd-girth runs under 4(12r)^r n^2/k^(r+1)"),
    ("scrubber-small", "4 scrub runs clean"),
    ("blowup-identity-small", "8 blow-up identities h(G[t],k) = t^2 h(G,k)"),
    ("dl-closed-form", "10 d_l(K_k) closed-form values match brute force"),
    ("coarsen-share", "12 coarsenings kept the d_l(K_k) share"),
    ("spectral", "spectral certificates sound on the regular suite"),
    ("driver-bipartite", "K_89,89 driver crossing 7921/7921 with k=178"),
    ("wheel-free-small", "1 wheel-free runs under the composed ceiling"),
    ("cover-bound-full", "800 cover selections under n^2/(e k)"),
    ("triangle-free-full", "56 triangle-free runs under n^2/(e k^2)"),
    ("odd-girth-full", "24 odd-girth runs under 4(12r)^r n^2/k^(r+1)"),
    ("scrubber-full", "9 scrub runs clean"),
    ("blowup-identity-full", "60 blow-up identities h(G[t],k) = t^2 h(G,k)"),
    ("duality-full", "80 exact h = m - maxcut identities"),
    ("dl-product", "90 cut-density products d_l >= d_l(K_k) d_k"),
    ("dl-closed-form-full", "15 d_l(K_k) closed-form values match brute force"),
    ("split-driver", "8 split-driver runs at or above m/2"),
    ("single-cover-worst-small", "worst one-center coverage n=4:4, n=5:6, n=6:9"),
    ("clique-free-theorem",
     "18 clique-free runs under (5/3) 4^(r-3) n^2 / k^((r-1)/(r-2))"),
    ("single-cover-worst", "worst one-center coverage n=4:4, n=5:6, n=6:9, n=7:12"),
    ("dl-product-full", "300 cut-density products d_l >= d_l(K_k) d_k"),
    ("wheel-free-full", "4 wheel-free runs under the composed ceiling"),
]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tier, count", [("tiny", 13), ("small", 23), ("desk", 27)])
def test_each_tier_lists_its_pinned_checks_in_order(tier, count, seed):
    names = [name for name, _ in DESK_AT_SEED_0[:count]]
    assert [name for name, _ in build_checks(tier, seed)] == names


def test_desk_tier_details_are_pinned():
    results = run_checks("desk", seed=0)
    assert [(r.name, r.ok, r.detail) for r in results] == [
        (name, True, detail) for name, detail in DESK_AT_SEED_0
    ]


def test_tiers_nest():
    tiny = {name for name, _ in build_checks("tiny", seed=0)}
    small = {name for name, _ in build_checks("small", seed=0)}
    desk = {name for name, _ in build_checks("desk", seed=0)}
    assert tiny < small < desk


def test_unknown_tier():
    with pytest.raises(ValueError):
        build_checks("galaxy", seed=0)


def test_tiny_tier_all_green_and_fast():
    results = run_checks("tiny", seed=0)
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    assert sum(r.seconds for r in results) < 60


def test_failures_are_captured_not_raised(monkeypatch):
    def boom():
        raise AssertionError("synthetic failure")

    monkeypatch.setattr(
        V, "build_checks", lambda tier, seed: [("boom", boom)]
    )
    results = V.run_checks("tiny", seed=0)
    assert len(results) == 1
    assert not results[0].ok
    assert "synthetic" in results[0].detail


def test_check_result_json_shape():
    res = CheckResult("x", True, "fine", 0.25)
    out = json.loads(dumps(res))
    assert set(out) == {"name", "ok", "detail", "seconds"}


# The checks below run only at the small and desk tiers; each is run here on
# a small input, and once more against a broken collaborator it must catch.

def _dl_product():
    return V._grid(V._dl_product, V._DL_PRODUCT, lambda: corpus.random_n8_suite()[:3],
                   ((3, 2), (4, 2), (4, 3)))


def _split_driver():
    return V._grid(V._split_driver, "split-driver runs at or above m/2",
                   lambda: corpus.odd_girth7_suite()[:2], (2,))


def _single_cover_worst():
    return V._check_single_cover_worst((4, 5))


def test_small_tier_checks_pass_on_small_inputs():
    assert _dl_product() == "9 cut-density products d_l >= d_l(K_k) d_k"
    assert _split_driver() == "2 split-driver runs at or above m/2"
    assert _single_cover_worst() == "worst one-center coverage n=4:4, n=5:6"


def _one_sided_cut(G, r):
    return CutResult(VertexPartition(G.n, (G.full_mask, 0)), 0, "one-sided")


@pytest.mark.parametrize("check, target, mutant, message", [
    # d_l(K_k) read as 2, above any cut density
    (_dl_product, "d_l_complete", lambda l, k: 2, "d_2 < d_2(K_3) d_3"),
    # the driver returns the empty cut
    (_split_driver, "maxcut_odd_cycle_free", _one_sided_cut, "split driver below m/2"),
    # the exhaustive worst case comes out one edge short
    (_single_cover_worst, "mantel_worst_uncovered",
     lambda n: (n * n // 4 - 1, None), "not floor(n^2/4)"),
])
def test_small_tier_checks_catch_a_broken_collaborator(check, target, mutant, message,
                                                       monkeypatch):
    monkeypatch.setattr(V, target, mutant)
    with pytest.raises(CheckFailure, match=re.escape(message)):
        check()
