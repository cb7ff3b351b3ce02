"""Check one round of kdelete outputs and total the quality metrics.

Each report is checked on its own (reference.check_*), then the reports on
the same graph and k are checked against each other, against theory, and
against brute force where the graph is small enough:

    lower bound <= h(G, k) <= every partitioner's deleted,
    a 2-cut crosses at most m - h(G, 2) edges,
    oracle h, m - exact max-cut, brute force and theory agree.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from fractions import Fraction

import reference as R
from reference import need


class RoundChecker:
    def __init__(self, inputs: dict):
        self.inputs = inputs
        self._brute: dict = {}
        self._lam: dict = {}

    def brute(self, key: str, k: int):
        """h(G, k) by enumeration, or None when the graph is too large."""
        inp = self.inputs[key]
        limit = {2: R.BRUTE_K2_MAX_N, 3: R.BRUTE_K3_MAX_N}.get(k, -1)
        if inp.n > limit:
            return None
        if (key, k) not in self._brute:
            self._brute[key, k] = R.brute_h(inp.n, inp.edges, k)
        return self._brute[key, k]

    def lam(self, key: str) -> float:
        if key not in self._lam:
            inp = self.inputs[key]
            self._lam[key] = R.second_eigenvalue(inp.n, inp.edges)
        return self._lam[key]

    def check(self, results) -> dict:
        """results: (op, stdout) for every operation that succeeded.
        Returns the round's totals; raises CheckFailed on a bad output."""
        totals = {"deleted_total": 0, "crossing_total": 0, "uncovered_total": 0}
        facts = defaultdict(lambda: defaultdict(list))
        for op, out in results:
            inp = self.inputs[op.graph]
            where = f"{' '.join(op.argv)} on {op.graph}"
            try:
                self._check_one(op, inp, out, totals, facts[op.graph, op.k])
            except (R.CheckFailed, KeyError, ValueError, TypeError) as exc:
                raise R.CheckFailed(f"{where}: {exc}") from exc
        lb_total = Fraction(0)
        for (key, k), f in facts.items():
            try:
                lb_total += self._cross_check(key, k, f)
            except R.CheckFailed as exc:
                raise R.CheckFailed(f"{key} at k={k}: {exc}") from exc
        totals["lb_total"] = lb_total
        return totals

    def _check_one(self, op, inp, out, totals, f) -> None:
        if op.kind == "oracle-h":
            f["oracle"].append(int(out))
            return
        report = json.loads(out)
        need(report["command"] == list(op.argv), "report names another command")
        need(report["input_sha256"] == hashlib.sha256(inp.text.encode()).hexdigest(),
             "report hashes another input")
        body = report["outputs"]
        n, edges, k = inp.n, inp.edges, op.k
        if op.kind == "partition":
            deleted = R.check_partition(body, n, edges, op.method, k, op.flag("--r"))
            totals["deleted_total"] += deleted
            f["deleted"].append(deleted)
        elif op.kind == "cover":
            totals["uncovered_total"] += R.check_cover(body, n, edges, k)
        elif op.kind == "maxcut":
            crossing = R.check_cut(body, n, edges, k)
            totals["crossing_total"] += crossing
            f["crossing"].append(crossing)
            if op.method == "exact":
                f["cut_h"].append(len(edges) - crossing)
        elif op.kind == "oracle-spectral":
            f["spectral"].append(R.check_spectral(body, n, edges, k, self.lam(op.graph)))
        else:
            raise R.CheckFailed(f"no check for {op.kind}")

    def _cross_check(self, key: str, k: int, f) -> Fraction:
        """Check the facts gathered on one (graph, k); return its certified
        lower bound: oracle h where it ran, else the spectral certificate."""
        inp = self.inputs[key]
        exact = f["oracle"] + f["cut_h"]
        if k in inp.h_exact:
            exact.append(inp.h_exact[k])
        brute = self.brute(key, k) if k in (2, 3) else None
        if brute is not None:
            exact.append(brute)
        need(len(set(exact)) <= 1, f"oracle, exact cut, brute force and theory disagree: {exact}")
        floor = max([inp.h_floor(k)] + exact)
        upper = exact[:1] or f["deleted"]
        for value in f["spectral"]:
            need(all(value <= h for h in upper), f"spectral bound {value} exceeds h")
        for deleted in f["deleted"]:
            need(deleted >= floor, f"deleted {deleted} is below h >= {floor}")
        for crossing in f["crossing"]:
            m = len(inp.edges)
            need(crossing <= m - floor, f"cut {crossing} crosses more than m - h = {m - floor}")
        if f["oracle"]:
            return Fraction(f["oracle"][0])
        return max(f["spectral"], default=Fraction(0))
