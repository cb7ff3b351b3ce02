"""Per-layer spans, recorded from outside kdelete.

Tracer.install wraps each public function in TARGETS at every module
attribute that refers to it, so a call made through any import of the name
(``kdelete.cliquefree.even_parts`` as well as ``kdelete.cover.even_parts``)
is seen; ``Graph.induced`` is wrapped on its class.  Each call appends a span
(target, start, end, parent span, operation) to an in-memory list.  A
layer's self time is its span's duration minus the durations of the spans
it caused.  Spans are folded into per-layer metrics when a round ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TARGETS = {
    "cover": ("select_cover_expectation", "select_cover_greedy", "even_parts"),
    "cliquefree": ("partition_clique_free", "partition_triangle_free"),
    "partition": ("greedy_complete", "compose_partition"),
    "graphs": ("find_cycle_of_length", "build_graph", "Graph.induced", "odd_girth",
               "parse_edge_list"),
    "oddgirth": ("scrub_short_odd_cycles", "extract_independent_set",
                 "find_poor_expansion_set", "partition_odd_girth"),
    "maxcut": ("local_search_cut", "coarsen_cut", "surplus_compose", "max_k_cut_exact"),
    "oracle": ("min_internal_partition",),
    "constructions": ("second_eigenvalue", "spectral_lower_bound"),
    "cli": ("main",),
}

# Counters kept next to the spans: name -> (targets, f(args, result) to add per call).
COUNTERS = {
    "cover.centers_scored": (
        ("cover.select_cover_expectation", "cover.select_cover_greedy"),
        lambda args, result: args[0].n * args[1],
    ),
    "graphs.find_cycle_of_length.hits": (
        ("graphs.find_cycle_of_length",), lambda args, result: result is not None,
    ),
    "oddgirth.cycles_scrubbed": (
        ("oddgirth.scrub_short_odd_cycles",), lambda args, result: len(result.cycles),
    ),
}


def span_names() -> list[str]:
    return [f"{mod}.{func}" for mod, funcs in TARGETS.items() for func in funcs]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        counters = [(c, f) for c, (targets, f) in COUNTERS.items() if name in targets]
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, self.op)
            for counter, f in counters:
                counts[counter] += f(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "kdelete" or n.startswith("kdelete.")) and m is not None]
        for idx, name in enumerate(self.names):
            mod_name, qual = name.split(".", 1)
            mod = sys.modules["kdelete." + mod_name]
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(idx, original))
                continue
            original = getattr(mod, qual)
            wrapper = self._wrap(idx, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_round(self) -> dict[str, float]:
        """Fold the spans and counters recorded since the last call into
        per-layer figures, then forget them."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for slot, (idx, start, end, parent, op) in enumerate(self.spans):
            self_s[idx] += end - start - child[slot]
            calls[idx] += 1
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.self_s"] = self_s[idx]
            out[f"{name}.calls"] = calls[idx]
        out.update({counter: self.counts.get(counter, 0) for counter in COUNTERS})
        self.spans.clear()
        self.counts.clear()
        return out
