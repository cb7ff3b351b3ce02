"""The three workloads: which graphs are built and which kdelete commands run.

Each workload is a fixed list of operations.  The seed changes the inputs
(vertex labels, and the random K4-free process) but never the number or kind
of operations, so every run attempts whole rounds of the same commands.
Where one vertex sets the cost of the search (the hub of a windmill, the
spine of a book) its label is pinned to the middle and only the others are
permuted, so the work per round does not swing with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import families as F

WORKLOADS = ("cover-dense", "oddcycle-scrub-peel", "exact-certify")


@dataclass
class Input:
    """A graph plus what theory says about it.

    hypotheses are checked by reference.check_hypothesis at set-up; chi is
    the chromatic number where it is known (so h(G, k) >= 1 for k < chi);
    h_exact maps k to h(G, k) where theory pins it.
    """

    key: str
    n: int
    edges: list
    hypotheses: tuple = ()
    chi: int | None = None
    h_exact: dict = field(default_factory=dict)
    text: str = field(init=False)

    def __post_init__(self):
        self.text = F.edge_list_text((self.n, self.edges))

    def h_floor(self, k: int) -> int:
        if k in self.h_exact:
            return self.h_exact[k]
        return 1 if self.chi is not None and k < self.chi else 0


@dataclass(frozen=True)
class Op:
    """One kdelete command run on one input.  expect_fail marks a command
    that fails today because of a known fault in kdelete; any other failure
    makes the run incorrect."""

    graph: str
    argv: tuple
    expect_fail: bool = False

    def flag(self, name: str, default=None):
        if name in self.argv:
            return int(self.argv[self.argv.index(name) + 1])
        return default

    @property
    def kind(self) -> str:
        if self.argv[0] == "oracle":
            return "oracle-" + self.argv[1]
        return self.argv[0]

    @property
    def method(self):
        return self.argv[self.argv.index("--method") + 1] if "--method" in self.argv else None

    @property
    def k(self) -> int:
        return self.flag("--k", self.flag("--l", 2))


def partition(method: str, k: int, r: int | None = None, verify: bool = False) -> tuple:
    argv = ("partition", "--method", method, "--k", str(k))
    if r is not None:
        argv += ("--r", str(r))
    return argv + (("--verify-preconditions",) if verify else ())


def cover(k: int) -> tuple:
    return ("cover", "--strategy", "best", "--k", str(k))


def oracle(quantity: str, k: int) -> tuple:
    return ("oracle", quantity, "--k", str(k))


def maxcut(method: str, r: int | None = None) -> tuple:
    argv = ("maxcut", "--method", method, "--l", "2")
    return argv + (("--r", str(r)) if r is not None else ())


def needed_hypothesis(op: Op):
    """The input property the guarantee of an operation rests on."""
    r = op.flag("--r")
    if op.kind == "oracle-spectral":
        return "regular"
    if op.method in ("oddcycle", "driver"):
        return "C5-free" if r == 2 else None
    if (op.method == "trianglefree" or (op.method == "clique" and r == 3)
            or (op.method == "oddgirth" and r == 1)):
        return "K3-free"
    if op.method == "clique":
        return f"K{r}-free"
    if op.method == "oddgirth":
        return f"odd-girth>{2 * r + 1}"
    if op.method == "wheel":  # W_3 = K_4; a triangle-free graph has no odd wheel
        return "K4-free" if r == 1 else "K3-free"
    return None


class Workload:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.inputs: dict[str, Input] = {}
        self.ops: list[Op] = []

    def graph(self, key, graph, hypotheses=(), chi=None, h_exact=None, relabel=True, pin=None):
        if relabel:
            graph = F.relabel(graph, self.rng, pin)
        n, edges = graph
        self.inputs[key] = Input(key, n, edges, tuple(hypotheses), chi, dict(h_exact or {}))
        return key

    def run(self, key, *argvs, expect_fail=False):
        for argv in argvs:
            self.ops.append(Op(key, tuple(argv), expect_fail))


def cover_dense(b: Workload) -> None:
    """Dense K4-free graphs through the clique divide path (k > 64) and
    cover --strategy best; triangle-free Mycielski and Kneser graphs at
    k < chi run alongside, and Paley(17) blow-ups carry the spectral bound."""
    g = b.graph("tripartite-105", F.complete_multipartite([105] * 3), ["K4-free"], chi=3)
    b.run(g, partition("clique", 66, 4))
    g = b.graph("tripartite-70", F.complete_multipartite([70] * 3), ["K4-free"], chi=3)
    b.run(g, cover(8), maxcut("local"))
    g = b.graph("k4-process-360", F.k4_free_process(360, b.rng), ["K4-free"], relabel=False)
    b.run(g, partition("clique", 66, 4), cover(8), maxcut("local"))
    g = b.graph("paley17x8", F.blow_up(F.paley(17), 8), ["K4-free", "regular"], relabel=False)
    b.run(g, oracle("spectral", 2), partition("clique", 2, 4), cover(4))
    for i, ks in ((8, (4, 7)), (9, (8,))):
        g = b.graph(f"mycielski-{i}", F.mycielski(i), ["K3-free"], chi=i)
        b.run(g, *(partition("trianglefree", k) for k in ks), cover(8))
    for n, k in ((8, 3), (10, 4), (11, 4)):
        chi = n - 2 * k + 2
        g = b.graph(f"kneser-{n}-{k}", F.kneser(n, k), ["K3-free"], chi=chi)
        b.run(g, partition("trianglefree", chi - 1), cover(3))
    b.run("kneser-8-3", partition("oddgirth", 3, 1, verify=True))
    g = b.graph("grotzsch", F.mycielski(4), ["K3-free"], chi=4)
    b.run(g, oracle("h", 3), partition("trianglefree", 3))
    g = b.graph("petersen", F.kneser(5, 2), ["K3-free"], chi=3)
    b.run(g, oracle("h", 2), partition("trianglefree", 2))


def oddcycle_scrub_peel(b: Workload) -> None:
    """C5-free inputs through scrub and peel: C7 blow-ups (the cycle search
    only proves absence) against windmills and books (it finds every
    triangle), plus odd graphs K(2k+1, k) through the odd-girth engine."""
    g = b.graph("c7x50", F.blow_up(F.cycle(7), 50), ["C5-free", "K3-free"], chi=3, h_exact={2: 2500})
    b.run(g, partition("oddcycle", 2, 2), maxcut("driver", 2))
    g = b.graph("c7x30", F.blow_up(F.cycle(7), 30), ["C5-free", "K3-free"], chi=3, h_exact={2: 900})
    b.run(g, partition("oddcycle", 8, 2), cover(2))
    g = b.graph("c7x20", F.blow_up(F.cycle(7), 20), ["K3-free"], chi=3, h_exact={2: 400})
    b.run(g, partition("wheel", 8, 2))
    g = b.graph("windmill-300", F.windmill(300), ["C5-free"], chi=3, h_exact={2: 300}, pin={0: 300})
    b.run(g, partition("oddcycle", 2, 2), maxcut("driver", 2))
    g = b.graph("book-300", F.book(300), ["C5-free"], chi=3, h_exact={2: 1}, pin={0: 150, 1: 151})
    b.run(g, partition("oddcycle", 2, 2), maxcut("driver", 2))
    g = b.graph("odd-graph-4", F.kneser(9, 4), ["odd-girth>7"], chi=3)
    b.run(g, partition("oddgirth", 2, 3, verify=True))
    g = b.graph("odd-graph-5", F.kneser(11, 5), ["odd-girth>9"], chi=3)
    b.run(g, partition("oddgirth", 2, 4, verify=True), partition("oddgirth", 3, 4))
    g = b.graph("c7x2", F.blow_up(F.cycle(7), 2), ["C5-free"], chi=3, h_exact={2: 4})
    b.run(g, oracle("h", 2), partition("oddcycle", 2, 2))
    g = b.graph("windmill-8", F.windmill(8), ["C5-free"], chi=3, h_exact={2: 8})
    b.run(g, oracle("h", 2), partition("oddcycle", 2, 2))
    g = b.graph("book-10", F.book(10), ["C5-free"], chi=3, h_exact={2: 1})
    b.run(g, oracle("h", 2), maxcut("driver", 2))


def exact_certify(b: Workload) -> None:
    """The branch and bound on instances that take it tenths of a second,
    exact max-cuts, spectral certificates on Paley graphs, and small
    partitions on the same graphs, plus oracle h on C_1501."""
    fixed = dict(relabel=False)
    g = b.graph("c5x6", F.blow_up(F.cycle(5), 6), ["K3-free"], chi=3, h_exact={2: 36}, **fixed)
    b.run(g, oracle("h", 2), partition("trianglefree", 2))
    g = b.graph("c7x4", F.blow_up(F.cycle(7), 4), ["odd-girth>5"], chi=3, h_exact={2: 16}, **fixed)
    b.run(g, oracle("h", 2), partition("oddgirth", 2, 2))
    g = b.graph("mycielski-5+4", F.disjoint_union(F.mycielski(5), F.mycielski(4)), chi=5, **fixed)
    b.run(g, oracle("h", 3))
    g = b.graph("mycielski-5", F.mycielski(5), ["K3-free"], chi=5, **fixed)
    b.run(g, oracle("h", 4), oracle("h", 2), maxcut("exact"),
          partition("trianglefree", 4), partition("oddgirth", 2, 1, verify=True))
    g = b.graph("kneser-7-2", F.kneser(7, 2), ["K4-free"], chi=5, **fixed)
    b.run(g, oracle("h", 2), oracle("h", 4), maxcut("exact"), partition("clique", 2, 4))
    for q in (13, 17):
        g = b.graph(f"paley-{q}", F.paley(q), ["K4-free", "regular"], **fixed)
        b.run(g, oracle("h", 2), oracle("h", 3), oracle("spectral", 2), maxcut("exact"),
              partition("clique", 2, 4), partition("wheel", 8, 1), cover(2))
    for q in (29, 37, 41):
        g = b.graph(f"paley-{q}", F.paley(q), ["regular"], **fixed)
        b.run(g, oracle("spectral", 2))
    for i in range(6):
        g = b.graph(f"paley-17-relabeled-{i}", F.paley(17), ["K4-free", "regular"])
        b.run(g, oracle("h", 3), oracle("spectral", 3))
    g = b.graph("grotzsch", F.mycielski(4), ["K3-free"], chi=4)
    b.run(g, oracle("h", 3), partition("trianglefree", 3))
    g = b.graph("c1501", F.cycle(1501), chi=3, h_exact={2: 1}, **fixed)
    # A RecursionError escapes cli.main: min_internal_partition recurses once per vertex.
    b.run(g, oracle("h", 2), expect_fail=True)


DEFINITIONS = {
    "cover-dense": cover_dense,
    "oddcycle-scrub-peel": oddcycle_scrub_peel,
    "exact-certify": exact_certify,
}


def build(workload: str, seed: int) -> Workload:
    b = Workload(seed)
    DEFINITIONS[workload](b)
    return b
