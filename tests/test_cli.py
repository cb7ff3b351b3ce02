import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from kdelete import cli
from kdelete.cli import build_parser, main
from kdelete.constructions import cycle, petersen, random_graph
from kdelete.corpus import windmill
from kdelete.errors import EmptyWorkingSet, InvariantViolation
from kdelete.graphs import MAX_VERTICES, format_edge_list
from kdelete.oracle import exact_h

C5_TEXT = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_cycle_matches_golden(capsys, monkeypatch):
    code, out, err = run_cli(["gen", "--kind", "cycle", "--n", "5"], capsys=capsys)
    assert code == 0
    assert out == C5_TEXT


def test_gen_blowup(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["gen", "--kind", "cycle", "--n", "5", "--blowup", "2"], capsys=capsys
    )
    assert out.splitlines()[0] == "10 20"


@pytest.mark.parametrize("blowup", ["0", "-3"])
def test_gen_blowup_must_be_positive(blowup, capsys):
    code, out, err = run_cli(
        ["gen", "--kind", "cycle", "--n", "5", "--blowup", blowup], capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --blowup must be positive")


@pytest.mark.parametrize("name", ["missing.el", "."])
def test_unreadable_input_is_a_usage_error(name, tmp_path, capsys):
    path = str(tmp_path / name)
    code, out, err = run_cli(
        ["partition", "--method", "trianglefree", "--k", "2", "--input", path],
        capsys=capsys,
    )
    assert (code, out) == (2, "")
    first, *rest = err.splitlines()
    assert first.startswith(f"usage error: cannot read --input {path!r}: ")
    assert [line for line in rest if not line.startswith("wall_time_seconds=")] == []


def _refuse_to_build(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("gen built a graph")

    for kind in list(cli.GENERATORS):
        monkeypatch.setitem(cli.GENERATORS, kind, built)
    monkeypatch.setattr(cli, "blow_up", built)


@pytest.mark.parametrize("argv", [
    ["--kind", "complete", "--n", "100000"],
    ["--kind", "multipartite", "--sizes", f"{MAX_VERTICES // 2},{MAX_VERTICES // 2 + 1}"],
    ["--kind", "cycle", "--n", str(MAX_VERTICES // 2 + 1), "--blowup", "2"],
    ["--kind", "petersen", "--blowup", str(MAX_VERTICES // 10 + 1)],
    ["--kind", "complete", "--n", str(MAX_VERTICES + 1)],
    ["--kind", "multipartite", "--sizes", f"{MAX_VERTICES},1"],
    ["--kind", "random", "--n", "4000", "--p", "0.5", "--blowup", "3"],
])
def test_gen_vertex_cap_refuses_before_building(argv, capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    code, out, err = run_cli(["gen", *argv], capsys=capsys)
    assert code == 3
    assert out == ""
    assert f"refused: gen is limited to {MAX_VERTICES} vertices" in err


def test_gen_vertex_cap_admits_the_cap_itself(capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    with pytest.raises(AssertionError, match="gen built a graph"):
        main(["gen", "--kind", "cycle", "--n", str(MAX_VERTICES // 2), "--blowup", "2"])


def _refuse_to_run(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a subcommand ran")

    for name in (
        "partition_triangle_free", "partition_clique_free",
        "partition_wheel_free", "partition_odd_girth",
        "partition_odd_cycle_free", "scrub_short_odd_cycles", "select_cover",
        "local_search_cut", "max_k_cut_exact", "maxcut_odd_cycle_free",
        "exact_h", "exact_u",
    ):
        monkeypatch.setattr(cli, name, ran)


BIG = str(MAX_VERTICES + 1)


@pytest.mark.parametrize("flag, argv", [
    ("k", ["partition", "--method", "trianglefree", "--k", BIG]),
    ("k", ["partition", "--method", "wheel", "--r", "1", "--k", "1000000"]),
    ("r", ["partition", "--method", "clique", "--r", BIG, "--k", "2"]),
    ("r", ["partition", "--method", "oddgirth", "--r", BIG, "--k", "2"]),
    ("r", ["partition", "--method", "oddcycle", "--r", BIG, "--k", "2"]),
    ("k", ["cover", "--k", BIG]),
    ("r", ["scrub", "--r", BIG]),
    ("l", ["maxcut", "--method", "local", "--l", "1000000"]),
    ("l", ["maxcut", "--method", "exact", "--l", BIG]),
    ("r", ["maxcut", "--method", "driver", "--r", BIG]),
    ("k", ["oracle", "h", "--k", BIG]),
    ("k", ["oracle", "u", "--k", BIG]),
])
def test_k_l_r_cap_refuses_before_running(flag, argv, capsys, monkeypatch):
    _refuse_to_run(monkeypatch)
    code, out, err = run_cli(
        argv, stdin_text=_petersen_text(), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 3
    assert out == ""
    assert f"refused: --{flag} is limited to {MAX_VERTICES}" in err


def test_k_cap_admits_the_cap_itself(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["partition", "--method", "trianglefree", "--k", str(MAX_VERTICES)],
        stdin_text=_petersen_text(), capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["outputs"]["partition"]["k"] == MAX_VERTICES


def test_oracle_h_bare_integer(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["oracle", "h", "--k", "2"], stdin_text=C5_TEXT, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "1\n"


def test_oracle_u_and_maxcut(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["oracle", "maxcut", "--k", "2"], stdin_text=C5_TEXT, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert out == "4\n"
    code, out, _ = run_cli(
        ["oracle", "u", "--k", "2"], stdin_text=C5_TEXT, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert out == "3\n"


@pytest.mark.parametrize("quantity,expected", [("h", "2500\n"), ("maxcut", "15000\n")])
def test_oracle_on_a_blow_up_answers_within_a_second(quantity, expected, capsys, monkeypatch):
    _, text, _ = run_cli(
        ["gen", "--kind", "cycle", "--n", "7", "--blowup", "50"], capsys=capsys
    )
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["oracle", quantity, "--k", "2"], stdin_text=text, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, expected)


@pytest.mark.parametrize("value", ["abc", "1e6", "-5", "0", "2.5"])
def test_bad_budget_variable_is_a_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("KDELETE_BUDGET", value)
    code, out, err = run_cli(
        ["oracle", "h", "--k", "2"], stdin_text=C5_TEXT, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert f"usage error: KDELETE_BUDGET must be a positive integer (got {value!r})" in err


def _petersen_text():
    return format_edge_list(petersen())


def test_oracle_lambda_on_petersen(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["oracle", "lambda"], stdin_text=_petersen_text(), capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert abs(float(out) - 2.0) <= 1e-9


def test_oracle_spectral_on_petersen(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["oracle", "spectral", "--k", "2"], stdin_text=_petersen_text(),
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    cert = json.loads(out)["outputs"]["certificate"]
    assert Fraction(cert["lambda_upper"]) >= 2
    assert Fraction(cert["value"]) <= exact_h(petersen(), 2)


@pytest.mark.parametrize("quantity", ["lambda", "spectral"])
def test_oracle_spectral_refuses_before_the_dense_eigh(quantity, capsys, monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code, out, err = run_cli(
        ["oracle", quantity], stdin_text="2001 0\n", capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert "refused: the dense eigendecomposition is limited to 2000" in err


def test_oracle_spectral_refuses_irregular(capsys, monkeypatch):
    code, out, err = run_cli(
        ["oracle", "spectral"], stdin_text="3 2\n0 1\n1 2\n", capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert "regular" in err


def test_partition_report_is_byte_stable(capsys, monkeypatch, tmp_path):
    el = tmp_path / "p.el"
    proc = subprocess.run(
        [sys.executable, "-m", "kdelete", "gen", "--kind", "petersen"],
        capture_output=True, text=True,
    )
    el.write_text(proc.stdout)
    argv = ["partition", "--method", "trianglefree", "--k", "2",
            "--input", str(el)]
    code1, out1, _ = run_cli(argv, capsys=capsys)
    code2, out2, _ = run_cli(argv, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte stability under a fixed seed
    report = json.loads(out1)
    assert set(report) == {"command", "input_sha256", "outputs", "seed"}
    assert report["command"][0] == "partition"
    assert report["outputs"]["deleted"] <= 9
    assert abs(report["outputs"]["bound_decimal"] - 9.196986029286059) < 1e-12
    # sorted keys, compact separators
    assert out1 == json.dumps(report, sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_partition_wall_time_goes_to_stderr(capsys, monkeypatch):
    _, out, err = run_cli(
        ["partition", "--method", "trianglefree", "--k", "2"],
        stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert "wall_time_seconds=" in err
    assert "wall_time_seconds" not in out


def test_maxcut_exact_cli(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["maxcut", "--l", "2", "--method", "exact"],
        stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert json.loads(out)["outputs"]["crossing"] == 4


def test_maxcut_exact_answers_an_edgeless_input(capsys, monkeypatch):
    # Isolated vertices do not count towards the k**(n-1) cap.
    code, out, _ = run_cli(
        ["maxcut", "--method", "exact"], stdin_text="188 0\n",
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["outputs"]["crossing"] == 0


def test_maxcut_driver_needs_r(capsys, monkeypatch):
    code, _, err = run_cli(
        ["maxcut", "--method", "driver"],
        stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "--r" in err


def test_cover_cli(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["cover", "--k", "2"], stdin_text=C5_TEXT, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    payload = json.loads(out)["outputs"]
    assert len(payload["centers"]) == 2
    assert payload["uncovered_edges"] <= 5


def test_scrub_cli(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["scrub", "--r", "2"],
        stdin_text="3 3\n0 1\n1 2\n0 2\n", capsys=capsys,
        monkeypatch=monkeypatch,
    )
    payload = json.loads(out)["outputs"]
    assert payload["removed"] == 3
    assert payload["result_edge_list"][0] == "3 0"


def test_precondition_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(
        ["partition", "--method", "trianglefree", "--k", "2",
         "--verify-preconditions"],
        stdin_text="3 3\n0 1\n1 2\n0 2\n", capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert "refused" in err


def test_oddgirth_partition_of_a_long_cycle(capsys, monkeypatch):
    # 1,634 peels, each scoring all 4,001 centers in one pass.
    code, out, err = run_cli(
        ["partition", "--method", "oddgirth", "--k", "4", "--r", "2",
         "--verify-preconditions"],
        stdin_text=format_edge_list(cycle(4001)), capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0, err
    report = json.loads(out)["outputs"]
    assert report["deleted"] == 0 and report["guarantee_holds"]
    assert report["meta"]["peel_rounds"] == 1634


def test_capability_exit_code(capsys, monkeypatch):
    code, _, _ = run_cli(
        ["partition", "--method", "clique", "--k", "2", "--r", "11"],
        stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 3


def test_oracle_answers_on_a_long_cycle(capsys, monkeypatch):
    # The exact search keeps its own stack, so a 1501-vertex forced path
    # runs to the end however deep the interpreter's limit is.
    code, out, err = run_cli(
        ["oracle", "h", "--k", "2"], stdin_text=format_edge_list(cycle(1501)),
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "1\n"
    assert not [line for line in err.splitlines() if line.startswith("refused:")]
    assert "Traceback" not in err


@pytest.mark.parametrize("quantity,expected", [("h", "300\n"), ("maxcut", "600\n")])
def test_oracle_answers_on_a_windmill_of_300_blades(quantity, expected, capsys, tmp_path):
    # Every blade is a triangle block, answered in closed form with no search.
    el = tmp_path / "windmill.el"
    el.write_text(format_edge_list(windmill(300)))
    code, out, _ = run_cli(["oracle", quantity, "--k", "2", "--input", str(el)], capsys=capsys)
    assert (code, out) == (0, expected)


def test_vertex_cap_exit_code(capsys, monkeypatch):
    code, out, err = run_cli(
        ["partition", "--method", "trianglefree", "--k", "2"],
        stdin_text=f"{MAX_VERTICES + 1} 0\n", capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert "refused" in err


def test_invariant_violation_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("deleted more than the ceiling")

    monkeypatch.setattr(cli, "partition_triangle_free", broken)
    code, out, err = run_cli(
        ["partition", "--method", "trianglefree", "--k", "2"],
        stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 4
    assert out == ""
    assert "invariant violated: deleted more than the ceiling" in err


def test_other_package_errors_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EmptyWorkingSet("working set has no incident edges")

    monkeypatch.setattr(cli, "partition_odd_girth", broken)
    code, out, err = run_cli(
        ["partition", "--method", "oddgirth", "--r", "1", "--k", "2"],
        stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 4
    assert out == ""
    assert "internal error (EmptyWorkingSet): working set has no incident edges" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["gen"], "gen needs --kind"),
    (["gen", "--kind", "multipartite"], "--kind multipartite needs --sizes"),
    (["gen", "--kind", "cycle"], "--kind cycle needs --n"),
    (["gen", "--kind", "multipartite", "--sizes", "3,x"], "invalid literal for int()"),
    (["gen", "--kind", "random", "--n", "5", "--p", "2"], "p must lie in [0, 1]"),
    (["partition", "--method", "clique", "--k", "3"], "--method clique needs --r"),
    (["maxcut", "--method", "driver", "--r", "1", "--l", "3"],
     "the driver computes 2-cuts"),
])
def test_invalid_arguments_are_one_usage_error_line(argv, message, capsys, monkeypatch):
    code, out, err = run_cli(argv, stdin_text=C5_TEXT, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[1].startswith("wall_time_seconds=")
    assert lines[0].startswith(f"usage error: {message}")


@pytest.mark.parametrize("argv, code", [
    (["partition", "--method", "oddgirth", "--k", "2", "--r", "110"], 0),
    (["partition", "--method", "wheel", "--k", "12", "--r", "200"], 0),
    (["maxcut", "--method", "driver", "--r", "100"], 3),
    (["partition", "--method", "oddgirth", "--k", "1", "--r", "1100"], 3),
])
def test_large_r_on_petersen_exits_cleanly(argv, code, capsys, monkeypatch):
    got, out, err = run_cli(argv, stdin_text=_petersen_text(), capsys=capsys,
                            monkeypatch=monkeypatch)
    assert got == code
    assert "Traceback" not in err
    if code == 0:
        # the ceiling overflows a float but stays exact in "bound"
        outputs = json.loads(out)["outputs"]
        assert outputs["bound_decimal"] == "inf"
        assert Fraction(outputs["bound"]) > 10**308
    else:
        assert out == ""
        assert err.splitlines()[0].startswith("refused: ")


def test_verify_failure_exits_4_and_prints_every_check(capsys, monkeypatch):
    import kdelete.verify as V

    def boom():
        raise V.CheckFailure("synthetic regression")

    monkeypatch.setattr(V, "build_checks", lambda tier, seed: [
        ("fine", lambda: "all good"), ("broken", boom), ("also-fine", lambda: "ok"),
    ])
    code, out, err = run_cli(["verify", "--tier", "tiny"], capsys=capsys)
    assert code == 4
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["ok"], r["detail"]) for r in rows] == [
        ("fine", True, "all good"),
        ("broken", False, "CheckFailure: synthetic regression"),
        ("also-fine", True, "ok"),
    ]
    assert "2/3 checks passed" in err
    assert "failed: broken" in err.splitlines()


def test_subcommand_options():
    """Every option of every subcommand, read off the parser."""
    (sub,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    options = {
        name: sorted(s for a in p._actions if a.dest != "help"
                     for s in a.option_strings or [a.dest])
        for name, p in sub.choices.items()
    }
    assert options == {
        "gen": ["--blowup", "--kind", "--n", "--p", "--seed", "--sizes"],
        "partition": ["--input", "--k", "--method", "--r", "--seed",
                      "--verify-preconditions"],
        "maxcut": ["--input", "--l", "--method", "--r", "--seed", "--starts"],
        "cover": ["--input", "--k", "--seed", "--strategy", "--trials"],
        "scrub": ["--input", "--r", "--seed"],
        "oracle": ["--input", "--k", "--seed", "quantity"],
        "verify": ["--seed", "--tier"],
    }


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--method", "nonsense", "--k", "2"])
    assert exc.value.code == 2


def test_verify_tiny_passes(capsys, monkeypatch):
    code, out, err = run_cli(["verify", "--tier", "tiny"], capsys=capsys)
    assert code == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert all(line["ok"] for line in lines)
    assert "checks passed" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kdelete", "gen", "--kind", "cycle", "--n", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == C5_TEXT


def _outcomes(calls, fresh, capsys, monkeypatch):
    """(exit code, stdout) of each main call in turn; a fresh call builds
    its parser anew, as a new process does."""
    import io

    out = []
    for argv, stdin_text in calls:
        if fresh:
            cli.build_parser.cache_clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out.append((code, capsys.readouterr().out))
    return out


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch, tmp_path):
    el = tmp_path / "petersen.el"
    el.write_text(_petersen_text())
    calls = [
        (["partition", "--method", "nonsense", "--k", "2"], ""),
        (["--help"], ""),
        (["cover", "--k", "2", "--input", str(el)], ""),
        (["cover", "--k", "2"], C5_TEXT),  # no --input left over: stdin is read
        (["maxcut", "--help"], ""),
        (["oracle", "h", "--k", "3"], C5_TEXT),
        (["gen", "--kind", "cycle", "--n", "5"], ""),
        (["cover"], C5_TEXT),  # --k is required
    ]
    fresh = _outcomes(calls, True, capsys, monkeypatch)
    shared = _outcomes(calls, False, capsys, monkeypatch)
    assert shared == fresh
    assert [code for code, _ in shared] == [2, 0, 0, 0, 0, 0, 0, 2]
    assert cli.build_parser.cache_info().misses == 1  # built once, then reused
    stdin_report, file_report = json.loads(shared[3][1]), json.loads(shared[2][1])
    assert stdin_report["outputs"] != file_report["outputs"]


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import kdelete.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.stdout == "0\n"


def test_oracle_over_the_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("KDELETE_BUDGET", "20000")
    G = random_graph(34, 0.5, seed=1)
    code, out, err = run_cli(["oracle", "h", "--k", "3"], stdin_text=format_edge_list(G),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert "refused: exact search exceeded 20000 nodes (n=34, k=3)\n" in err
