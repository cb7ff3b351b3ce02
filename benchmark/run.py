"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload cover-dense --seed 1 --seconds 25 --trace 0

Run from the repository root; kdelete is imported from ./src.  Every
operation is a kdelete subcommand run in this process through
``kdelete.cli.main`` with the edge list on stdin.  A round runs each of the
workload's operations once; rounds repeat until --seconds have passed, and
wall_s and cpu_s are the mean round.  After every operation, and around
every set-up step, the benchmark times a fixed reference loop of its own,
and every time metric is reported in nominal seconds: raw seconds divided
by the loop's time measured alongside, over REF_LOOPS_PER_S.  The host's
speed drifts by tens of percent over minutes and slows kdelete and the loop
alike, so the quotient cancels it.  --trace 0 prints the end-to-end
metrics; after the timed rounds, probe.py runs one more round in a fresh
process to measure peak_rss_mb.  --trace 1 spends half the time untraced
and half with the per-layer tracer installed, and prints the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probe
import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# One nominal second is the time the reference loop takes to run this many
# times; on a shared 2-vCPU Intel Xeon VM with Python 3.11 that is about one
# real second.
REF_LOOPS_PER_S = 250
# Reference loops timed on each side of a set-up step.
SETUP_REF_LOOPS = 20

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "deleted_total": "edges", "crossing_total": "edges", "uncovered_total": "edges",
    "lb_total": "edges",
}


def child_env() -> dict:
    """The environment of this process with ./src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Wall time of `python3 -c 'import kdelete.cli'` in a fresh interpreter,
    so the package import is paid in full, numpy and the standard library
    modules included."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import kdelete.cli"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"importing kdelete.cli failed:\n{proc.stderr}")
    return seconds


def reference_loop() -> int:
    """A fixed piece of pure-Python work that imports nothing from kdelete:
    big-integer powers, sums and bit counts like those of the cover
    selection, then dict updates like those of the parsers."""
    total = 0
    for j in range(40, 48):
        for u in range(0, 300, 6):
            total += (300 - u) ** j
    mask = (1 << 300) - 12345
    for i in range(6000):
        total += (mask >> i % 290 & mask).bit_count()
    counts: dict = {}
    for i in range(12000):
        counts[i & 511] = counts.get(i & 511, 0) + i
    return total + len(counts)


def time_reference(loops: int = 1) -> tuple[float, float]:
    """(wall, cpu) seconds of `loops` reference loops."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(loops):
        reference_loop()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def nominal(seconds: float, ref_seconds_per_loop: float) -> float:
    """Raw seconds in nominal seconds, given the reference loop's time."""
    return seconds / ref_seconds_per_loop / REF_LOOPS_PER_S


def import_kdelete():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("kdelete.cli")


def ref_loop_seconds() -> float:
    """Wall seconds of one reference loop, the mean of SETUP_REF_LOOPS."""
    return time_reference(SETUP_REF_LOOPS)[0] / SETUP_REF_LOOPS


def build_and_check(workload: str, seed: int):
    """Builds every input and checks every input's hypothesis in this process."""
    built = workloads.build(workload, seed)
    for inp in built.inputs.values():
        for hypothesis in inp.hypotheses:
            try:
                reference.check_hypothesis(hypothesis, inp.n, inp.edges)
            except reference.CheckFailed as exc:
                raise SystemExit(f"input {inp.key}: {exc}") from exc
    for op in built.ops:
        wanted = workloads.needed_hypothesis(op)
        if wanted is not None and wanted not in built.inputs[op.graph].hypotheses:
            raise SystemExit(f"{' '.join(op.argv)} on {op.graph} needs a {wanted} input")
    return built


def setup(workload: str, seed: int):
    """One set-up: a fresh-interpreter import of kdelete.cli, then
    build_and_check.  Returns (nominal seconds, the built workload).  The
    host's speed can change within a second, so reference loops run before,
    between and after the two steps, and each step is divided by the loops
    on its two sides."""
    refs = [ref_loop_seconds()]
    steps = [import_seconds()]
    refs.append(ref_loop_seconds())
    start = time.perf_counter()
    built = build_and_check(workload, seed)
    steps.append(time.perf_counter() - start)
    refs.append(ref_loop_seconds())
    return sum(nominal(s, (a + b) / 2) for s, a, b in zip(steps, refs, refs[1:])), built


def probe_peak_rss(built, first_outputs) -> tuple[float, str | None]:
    """Peak resident memory of a fresh process that runs one round (probe.py);
    returns (MiB, a problem or None)."""
    ops = "".join(json.dumps({"argv": list(op.argv), "text": built.inputs[op.graph].text}) + "\n"
                  for op in built.ops)
    proc = subprocess.run([sys.executable, str(HERE / "probe.py")], input=ops, env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"the memory probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["digests"] != [probe.digest(out) for out in first_outputs]:
        return result["peak_rss_mb"], "the memory probe's outputs differ from the timed rounds'"
    return result["peak_rss_mb"], None


def run_round(cli, built, tracer=None):
    """Runs every operation once, each followed by one reference loop; returns
    (wall, cpu, reference wall, reference cpu, outputs), the times summed."""
    wall = cpu = ref_wall = ref_cpu = 0.0
    outputs = []
    gc.collect()
    for i, op in enumerate(built.ops):
        if tracer is not None:
            tracer.op = i
        w, c, out = probe.run_op(cli, op.argv, built.inputs[op.graph].text)
        wall += w
        cpu += c
        outputs.append(out)
        w, c = time_reference()
        ref_wall += w
        ref_cpu += c
    return wall, cpu, ref_wall, ref_cpu, outputs


class Rounds:
    """Runs rounds, checks the first one and holds later ones to its bytes."""

    def __init__(self, cli, built):
        self.cli, self.built = cli, built
        self.checker = checks.RoundChecker(built.inputs)
        self.first = None
        self.totals = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.ref_wall = self.ref_cpu = 0.0

    def round(self, tracer=None) -> None:
        wall, cpu, ref_wall, ref_cpu, outputs = run_round(self.cli, self.built, tracer)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.ref_wall += ref_wall
        self.ref_cpu += ref_cpu
        self.attempted += len(outputs)
        self.failed += sum(out is None for out in outputs)
        self.judge(outputs)

    def judge(self, outputs) -> None:
        if self.first is None:
            self.first = outputs
            for op, out in zip(self.built.ops, outputs):
                if out is None and not op.expect_fail:
                    self.problems.append(f"{' '.join(op.argv)} on {op.graph} failed")
            done = [(op, out) for op, out in zip(self.built.ops, outputs) if out is not None]
            try:
                self.totals = self.checker.check(done)
            except reference.CheckFailed as exc:
                self.problems.append(str(exc))
        elif outputs != self.first:
            self.problems.append("a later round's output differs from the first round's")

    def ref_loop(self) -> tuple[float, float]:
        """The mean (wall, cpu) seconds of one reference loop over the rounds."""
        loops = len(self.walls) * len(self.built.ops)
        return self.ref_wall / loops, self.ref_cpu / loops


def end_to_end(rounds: Rounds, setup_s: float, peak_rss_mb: float) -> dict:
    totals = rounds.totals or {}
    ref_wall, ref_cpu = rounds.ref_loop()
    return {
        "wall_s": nominal(statistics.fmean(rounds.walls), ref_wall),
        "cpu_s": nominal(statistics.fmean(rounds.cpus), ref_cpu),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "deleted_total": totals.get("deleted_total", 0),
        "crossing_total": totals.get("crossing_total", 0),
        "uncovered_total": totals.get("uncovered_total", 0),
        "lb_total": float(totals.get("lb_total", 0)),
    }


def per_layer_metrics(untraced: Rounds, traced: Rounds, per_round: list) -> dict:
    out = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        out[name] = statistics.median(values) if name.endswith(".self_s") else values[-1]
    hits = out.pop("graphs.find_cycle_of_length.hits")
    searches = out["graphs.find_cycle_of_length.calls"]
    out["graphs.find_cycle_of_length.hit_ratio"] = hits / searches if searches else 0.0
    # In nominal seconds, like wall_s: the host's drift between neighbouring
    # rounds is as large as the tracer's cost.
    out["trace.overhead_s"] = (nominal(statistics.fmean(traced.walls), traced.ref_loop()[0])
                               - nominal(statistics.fmean(untraced.walls), untraced.ref_loop()[0]))
    out["round.wall_s"] = statistics.fmean(untraced.walls)
    out["round.ref_loop_s"] = untraced.ref_loop()[0]
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kdelete" / "cli.py").is_file():
        print(f"kdelete sources not found under {SRC}", file=sys.stderr)
        return 2

    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, built = setup(args.workload, args.seed)
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)
    cli = import_kdelete()

    untraced = Rounds(cli, built)
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        while not untraced.walls or time.perf_counter() < deadline:
            untraced.round()
        peak_rss_mb, problem = probe_peak_rss(built, untraced.first)
        untraced.problems += [problem] if problem else []
        metrics = end_to_end(untraced, setup_s, peak_rss_mb)
        units = END_TO_END_UNITS
        attempted, failed, problems = untraced.attempted, untraced.failed, untraced.problems
    else:
        # Traced and untraced rounds alternate, so drift in the machine's
        # speed falls on both sides of trace.overhead_s alike.
        tracer = spans.Tracer()
        traced = Rounds(cli, built)
        per_round: list = []
        while not untraced.walls or time.perf_counter() < deadline:
            untraced.round()
            traced.first = untraced.first
            tracer.install()
            try:
                traced.round(tracer)
            finally:
                tracer.uninstall()
            per_round.append(tracer.take_round())
        metrics = per_layer_metrics(untraced, traced, per_round)
        units = {name: per_layer_unit(name) for name in metrics}
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        problems = untraced.problems + traced.problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("round wall_s: " + " ".join(f"{w:.4f}" for w in untraced.walls), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
