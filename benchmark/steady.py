"""Run each workload with several seeds and show how steady every metric is.

    python3 benchmark/steady.py                        # all workloads, seeds 1..10
    python3 benchmark/steady.py --seeds 1              # all workloads once
    python3 benchmark/steady.py --workload exact-certify --seeds 5 --first-seed 11

Run from the repository root.  Each run is the command in BENCHMARK.json
with --trace 0.  For every end-to-end metric the table gives the median, the
quartiles from statistics.quantiles(values, n=4), the spread
(q3 - q1) / median, and the medians of the first and the second half of the
seeds with the change between them, next to the metric's bound.  The two
halves stand for two sets of runs of the same code.  A workload is steady
when every run is correct, the share of failed operations is the same in
every run, every spread is at most a third of its bound and no change
between the halves exceeds its bound; setup_s is held to the same rules.
The raw results, with every run's per-round wall times, are written to
benchmark/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = [line for line in proc.stderr.splitlines() if line.startswith("round wall_s:")]
    result["round_wall_s"] = [float(x) for x in rounds[-1].split(":")[1].split()] if rounds else []
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(spec: dict, workload: str, results: list[dict]) -> bool:
    """Print the table for one workload; return whether it is steady."""
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    correct = all(r["correct"] for r in results)
    steady = correct and len({f / a for f, a in shares}) == 1
    half = len(results) // 2
    print(f"\n{workload}: {len(results)} runs, correct={correct}, (failed, attempted)={shares}")
    print(f"  {'metric':16s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} "
          f"{'half 1':>11s} {'half 2':>11s} {'change':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        first, second = (statistics.median(values[:half]), statistics.median(values[half:])) \
            if half else (med, med)
        change = (second - first) / first if first else float("inf")
        marks = []
        if spread > bound / 3:
            marks.append("spread above bound/3")
        if abs(change) > bound:
            marks.append("halves differ by more than the bound")
        steady &= not marks
        print(f"  {name:16s} {metric['unit']:6s} {med:11.6g} {q1:11.6g} {q3:11.6g} {spread:7.4f} "
              f"{first:11.6g} {second:11.6g} {change:+7.4f} {bound:6.3f}"
              + ("  <-- " + "; ".join(marks) if marks else ""))
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    OUT.mkdir(exist_ok=True)
    all_steady = True
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = []
        for seed in seeds:
            results.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: wall_s={results[-1]['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
        (OUT / f"steady-{workload}.json").write_text(
            json.dumps({"seeds": list(seeds), "results": results}, indent=1))
        all_steady &= summarize(spec, workload, results)
    print("\nsteady" if all_steady else "\nNOT steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
