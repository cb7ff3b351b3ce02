"""Each reference check accepts a real kdelete report and rejects a corrupted one.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

import copy
import json
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

import checks
import families as F
import probe
import reference as R
import run
import spans
import workloads
from workloads import Input, Op


@pytest.fixture(scope="module")
def cli():
    return run.import_kdelete()


def report(cli, argv, graph):
    _, _, out = probe.run_op(cli, argv, F.edge_list_text(graph))
    assert out is not None, argv
    return out


def flip_one_label(body, edges):
    """Move one vertex to another block so that the internal count changes."""
    labels = body["partition"]["labels"]
    before = R.internal_edges(edges, np.array(labels))
    for v in range(len(labels)):
        for block in range(body["partition"]["k"]):
            moved = labels[:v] + [block] + labels[v + 1:]
            if R.internal_edges(edges, np.array(moved)) != before:
                bad = copy.deepcopy(body)
                bad["partition"]["labels"] = moved
                return bad
    raise AssertionError("no single move changes the internal count")


def brute_cycles(n, edges, length):
    """Count cycles of a given length by trying every vertex sequence."""
    adj = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    count = 0
    for verts in combinations(range(n), length):
        first = verts[0]
        for rest in permutations(verts[1:]):
            cyc = (first,) + rest
            if rest[0] < rest[-1] and all((cyc[i], cyc[(i + 1) % length]) in adj for i in range(length)):
                count += 1
    return count


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    return F.normalize(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


# --- hypotheses and brute force ---------------------------------------------


def test_five_cycle_count_matches_enumeration():
    for seed in range(12):
        n, edges = random_graph(7, 0.5, seed)
        assert R.count_five_cycles(R.adjacency(n, edges)) == brute_cycles(n, edges, 5)


def test_hypotheses_accept_the_families_and_reject_counterexamples():
    R.check_hypothesis("K3-free", *F.mycielski(6))
    R.check_hypothesis("K4-free", *F.paley(17))
    R.check_hypothesis("C5-free", *F.windmill(20))
    R.check_hypothesis("C5-free", *F.book(20))
    R.check_hypothesis("odd-girth>7", *F.kneser(9, 4))
    R.check_hypothesis("regular", *F.paley(13))
    for name, graph in [("K3-free", F.cycle(3)), ("K4-free", F.complete_multipartite([1, 1, 1, 1])),
                        ("C5-free", F.cycle(5)), ("odd-girth>7", F.cycle(7)),
                        ("regular", F.book(3)), ("K4-free", F.paley(29))]:
        with pytest.raises(R.CheckFailed):
            R.check_hypothesis(name, *graph)


def test_brute_force_h_on_known_values():
    assert R.brute_h(*F.cycle(5), 2) == 1
    assert R.brute_h(*F.kneser(5, 2), 2) == 3
    assert R.brute_h(*F.complete_multipartite([1, 1, 1, 1]), 3) == 1
    assert R.brute_h(*F.mycielski(4), 3) == 1
    assert R.brute_h(*F.blow_up(F.cycle(7), 2), 2) == 4


# --- single reports ---------------------------------------------------------


def test_partition_check_rejects_a_flipped_label(cli):
    g = F.mycielski(6)
    body = json.loads(report(cli, workloads.partition("trianglefree", 3), g))["outputs"]
    assert R.check_partition(body, *g, "trianglefree", 3, None) == body["deleted"]
    with pytest.raises(R.CheckFailed):
        R.check_partition(flip_one_label(body, g[1]), *g, "trianglefree", 3, None)


def test_partition_check_rejects_a_deletion_above_the_ceiling():
    assert R.within_ceiling("trianglefree", 13, 20, 2, None)  # 400 / (4e) = 36.8
    assert not R.within_ceiling("trianglefree", 37, 20, 2, None)
    assert not R.within_ceiling("oddgirth", 4 * 12 * 100 // 4 + 1, 10, 2, 1)


def test_scrub_check_rejects_a_foreign_edge_and_a_wrong_total(cli):
    g = F.windmill(6)
    body = json.loads(report(cli, workloads.partition("oddcycle", 2, 2), g))["outputs"]
    assert R.check_partition(body, *g, "oddcycle", 2, 2) == len(g[1])
    bad = copy.deepcopy(body)
    bad["meta"]["scrub"]["removed_edges"][0] = [1, 3]  # blades 1-2 and 3-4 are not joined
    with pytest.raises(R.CheckFailed):
        R.check_partition(bad, *g, "oddcycle", 2, 2)
    bad = copy.deepcopy(body)
    bad["deleted"] -= 1
    with pytest.raises(R.CheckFailed):
        R.check_partition(bad, *g, "oddcycle", 2, 2)


def test_cut_check_rejects_a_flipped_label(cli):
    g = F.blow_up(F.cycle(7), 3)
    body = json.loads(report(cli, workloads.maxcut("driver", 2), g))["outputs"]
    R.check_cut(body, *g, 2)
    with pytest.raises(R.CheckFailed):
        R.check_cut(flip_one_label(body, g[1]), *g, 2)


def test_cover_check_rejects_a_stray_vertex_an_overlap_and_a_wrong_count(cli):
    g = F.kneser(8, 3)
    body = json.loads(report(cli, workloads.cover(3), g))["outputs"]
    R.check_cover(body, *g, 3)
    bad = copy.deepcopy(body)
    bad["sets"][0].append(bad["centers"][0])  # a center is not its own neighbour
    with pytest.raises(R.CheckFailed):
        R.check_cover(bad, *g, 3)
    bad = copy.deepcopy(body)
    bad["sets"][1] = bad["sets"][1] + bad["sets"][0][:1]
    bad["centers"][1] = bad["centers"][0]
    with pytest.raises(R.CheckFailed):
        R.check_cover(bad, *g, 3)
    bad = copy.deepcopy(body)
    bad["uncovered_edges"] -= 1
    with pytest.raises(R.CheckFailed):
        R.check_cover(bad, *g, 3)


def test_spectral_check_rejects_an_understated_lambda(cli):
    g = F.paley(17)
    body = json.loads(report(cli, workloads.oracle("spectral", 2), g))["outputs"]
    lam = R.second_eigenvalue(*g)
    value = R.check_spectral(body, *g, 2, lam)
    assert 0 < value <= R.brute_h(*g, 2)
    bad = copy.deepcopy(body)
    low = Fraction(lam) - Fraction(1, 1000)
    bad["certificate"]["lambda_upper"] = f"{low.numerator}/{low.denominator}"
    raw = (Fraction(8 * 17, 2) - low * 17) / 2
    bad["certificate"]["value"] = f"{raw.numerator}/{raw.denominator}"
    with pytest.raises(R.CheckFailed):
        R.check_spectral(bad, *g, 2, lam)
    bad = copy.deepcopy(body)
    bad["certificate"]["value"] = "1000/1"
    with pytest.raises(R.CheckFailed):
        R.check_spectral(bad, *g, 2, lam)


# --- cross checks -----------------------------------------------------------


def small_round(cli):
    inputs = {"petersen": Input("petersen", *F.kneser(5, 2), ("K3-free",), chi=3),
              "c7x2": Input("c7x2", *F.blow_up(F.cycle(7), 2), ("C5-free",), chi=3, h_exact={2: 4})}
    ops = [Op("petersen", workloads.oracle("h", 2)),
           Op("petersen", workloads.partition("trianglefree", 2)),
           Op("c7x2", workloads.oracle("h", 2)),
           Op("c7x2", workloads.maxcut("exact"))]
    results = [(op, report(cli, op.argv, (inputs[op.graph].n, inputs[op.graph].edges))) for op in ops]
    return checks.RoundChecker(inputs), results


def test_round_check_totals_and_rejects_a_wrong_h(cli):
    checker, results = small_round(cli)
    totals = checker.check(results)
    assert totals["lb_total"] == 3 + 4
    assert totals["crossing_total"] == 28 - 4
    for i, wrong in ((0, "4\n"), (2, "3\n")):
        bad = list(results)
        bad[i] = (bad[i][0], wrong)
        with pytest.raises(R.CheckFailed):
            checker.check(bad)


def test_round_check_rejects_a_cut_above_m_minus_h(cli):
    checker, results = small_round(cli)
    body = json.loads(results[3][1])
    body["outputs"]["crossing"] += 1
    bad = results[:3] + [(results[3][0], json.dumps(body))]
    with pytest.raises(R.CheckFailed):
        checker.check(bad)


# --- workloads and tracing ----------------------------------------------------


def test_a_seed_fixes_the_inputs_but_never_the_operations():
    for name in workloads.WORKLOADS:
        a, b, again = workloads.build(name, 1), workloads.build(name, 2), workloads.build(name, 1)
        assert [(op.graph, op.argv) for op in a.ops] == [(op.graph, op.argv) for op in b.ops]
        assert all(a.inputs[key].text == again.inputs[key].text for key in a.inputs)
        assert any(a.inputs[key].text != b.inputs[key].text for key in a.inputs)


def test_tracer_wraps_every_lookup_and_restores_it(cli):
    import kdelete.cliquefree as cf
    import kdelete.cover as cover
    import kdelete.graphs as graphs
    originals = (cover.even_parts, cf.even_parts, graphs.Graph.induced)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cf.even_parts is cover.even_parts is not originals[0]
        report(cli, workloads.partition("clique", 66, 4), F.complete_multipartite([30] * 3))
        figures = tracer.take_round()
    finally:
        tracer.uninstall()
    assert (cover.even_parts, cf.even_parts, graphs.Graph.induced) == originals
    assert figures["cli.main.calls"] == 1
    assert figures["cover.even_parts.calls"] >= 1
    assert figures["cliquefree.partition_clique_free.calls"] > 1  # the recursion
    assert figures["cover.centers_scored"] > 0
    assert 0 < figures["cover.select_cover_expectation.self_s"] < sum(
        v for k, v in figures.items() if k.endswith(".self_s"))


def test_only_a_failure_marked_as_expected_keeps_a_run_correct(cli):
    b = workloads.Workload(1)
    g = b.graph("petersen", F.kneser(5, 2), ["K3-free"], chi=3)
    b.run(g, workloads.oracle("h", 2))
    b.run(g, ("oracle", "no-such-quantity"), expect_fail=True)
    rounds = run.Rounds(cli, b)
    rounds.round()
    assert (rounds.attempted, rounds.failed, rounds.problems) == (2, 1, [])
    b.run(g, ("partition", "--method", "no-such-method", "--k", "2"))
    rounds = run.Rounds(cli, b)
    rounds.round()
    assert rounds.failed == 2
    assert rounds.problems == ["partition --method no-such-method --k 2 on petersen failed"]


def test_the_memory_probe_reproduces_the_round(cli):
    b = workloads.build("exact-certify", 1)
    b.ops = [op for op in b.ops if op.graph in ("grotzsch", "c5x6")]
    rounds = run.Rounds(cli, b)
    rounds.round()
    peak, problem = run.probe_peak_rss(b, rounds.first)
    assert problem is None and peak > 0
    peak, problem = run.probe_peak_rss(b, rounds.first[:-1] + ["altered\n"])
    assert problem is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_prints_every_metric_in_the_benchmark_spec(workload, capsys):
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    per_round = len(workloads.build(workload, 3).ops)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is True
        # only oracle h on C_1501 fails, once per round
        assert result["failed"] * per_round == (result["attempted"] if workload == "exact-certify" else 0)
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
