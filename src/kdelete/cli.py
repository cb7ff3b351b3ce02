"""Command-line surface: generate, partition, cut, cover, scrub, oracle, verify.

Report-producing subcommands wrap their payload in a run report::

    {"command": [...], "input_sha256": "...", "outputs": {...}, "seed": 0}

printed as one line of compact JSON with sorted keys, so a fixed input and
seed reproduce the output byte for byte (wall time goes to stderr for that
reason).  `gen` prints an edge list, `oracle` prints a bare integer,
and `verify` prints one JSON line per check.

Exit codes: 0 ok, 2 usage error, 3 capability/budget/precondition error
(including inputs over graphs.MAX_VERTICES, read or generated, any --k, --l
or --r over it, and `oracle lambda`/`oracle spectral` on more than 2,000
vertices), 4 violated guarantee (a failed verify check, or an
InvariantViolation raised by any subcommand) or any other package error,
printed as one line `internal error (<class>): ...`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .cliquefree import (
    partition_clique_free,
    partition_triangle_free,
    partition_wheel_free,
)
from .constructions import (
    GENERATORS,
    blow_up,
    mixing_check,
    second_eigenvalue,
    spectral_lower_bound,
)
from .cover import exact_u, select_cover
from .errors import CapabilityError, InvariantViolation, KDeleteError, PreconditionError
from .graphs import MAX_VERTICES, Graph, format_edge_list, parse_edge_list
from .maxcut import local_search_cut, max_k_cut_exact, maxcut_odd_cycle_free
from .oddgirth import (
    partition_odd_cycle_free,
    partition_odd_girth,
    scrub_short_odd_cycles,
)
from .oracle import exact_h
from .serialize import to_jsonable
from .verify import run_checks

PARTITION_METHODS = ("trianglefree", "clique", "wheel", "oddgirth", "oddcycle")
CUT_METHODS = ("exact", "local", "driver")


def _read_graph(args) -> tuple[Graph, str]:
    """Parse the edge list from --input (or stdin) and hash the raw bytes."""
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return parse_edge_list(text), digest


def _emit(argv: list[str], digest: str, seed: int, outputs) -> None:
    report = {
        "command": list(argv),
        "input_sha256": digest,
        "outputs": to_jsonable(outputs),
        "seed": seed,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _generate(kind: str, params: dict, blowup: int) -> Graph:
    """GENERATORS[kind](**params) blown up `blowup` times.

    The vertex count is read off the parameters and refused above
    MAX_VERTICES before anything is built; parameters the generator does
    not take are a usage error.
    """
    if blowup < 1:
        raise ValueError(f"--blowup must be positive (got {blowup})")
    if kind == "petersen":
        sizes = [10]
    else:
        sizes = params.get("sizes") if kind == "multipartite" else [params.get("n")]
        if not isinstance(sizes, list) or not all(isinstance(x, int) for x in sizes):
            field = "sizes" if kind == "multipartite" else "n"
            raise ValueError(f"kind {kind} needs integer {field}")
    order = sum(sizes) * blowup
    if order > MAX_VERTICES:
        raise CapabilityError(
            f"gen is limited to {MAX_VERTICES} vertices (asked for {order})"
        )
    try:
        G = GENERATORS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kind {kind}: {exc}") from None
    return blow_up(G, blowup) if blowup > 1 else G


def _graph_from_spec(raw: str, fallback_seed: int, blowup: int) -> Graph:
    spec = json.loads(raw)
    if not isinstance(spec, dict):
        raise ValueError("--spec must be a JSON object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("--spec params must be a JSON object")
    params = dict(params)
    if kind == "random":
        params.setdefault("seed", spec.get("seed", fallback_seed))
    return _generate(kind, params, blowup)


def _cmd_gen(args, argv) -> int:
    if args.spec is not None:
        G = _graph_from_spec(args.spec, args.seed, args.blowup)
    else:
        kind = args.kind
        if kind is None:
            raise ValueError("gen needs --kind or --spec")
        if kind == "petersen":
            params = {}
        elif kind == "multipartite":
            if args.sizes is None:
                raise ValueError("--kind multipartite needs --sizes a,b,...")
            params = {"sizes": [int(s) for s in args.sizes.split(",")]}
        else:
            if args.n is None:
                raise ValueError(f"--kind {kind} needs --n")
            params = {"n": args.n}
            if kind == "random":
                params.update(p=args.p, seed=args.seed)
        G = _generate(kind, params, args.blowup)
    sys.stdout.write(format_edge_list(G))
    return 0


def _cmd_partition(args, argv) -> int:
    G, digest = _read_graph(args)
    method = args.method
    if method in ("clique", "wheel", "oddgirth", "oddcycle") and args.r is None:
        raise ValueError(f"--method {method} needs --r")
    check = args.verify_preconditions
    if method == "trianglefree":
        report = partition_triangle_free(
            G, args.k, strategy=args.strategy, trials=args.trials,
            seed=args.seed, verify=check,
        )
    elif method == "clique":
        report = partition_clique_free(
            G, args.k, args.r, strategy=args.strategy, trials=args.trials,
            seed=args.seed, verify=check,
        )
    elif method == "wheel":
        report = partition_wheel_free(
            G, args.k, args.r, strategy=args.strategy, trials=args.trials,
            seed=args.seed, verify=check,
        )
    elif method == "oddgirth":
        report = partition_odd_girth(G, args.k, args.r, verify=check)
    else:
        report = partition_odd_cycle_free(G, args.k, args.r, verify=check)
    _emit(argv, digest, args.seed, report.to_json(G))
    return 0


def _cmd_maxcut(args, argv) -> int:
    G, digest = _read_graph(args)
    if args.method == "exact":
        result = max_k_cut_exact(G, args.l)
    elif args.method == "local":
        result = local_search_cut(G, args.l, starts=args.starts, seed=args.seed)
    else:
        if args.r is None:
            raise ValueError("--method driver needs --r")
        if args.l != 2:
            raise ValueError("the driver computes 2-cuts; drop --l or pass --l 2")
        result = maxcut_odd_cycle_free(G, args.r, seed=args.seed)
    _emit(argv, digest, args.seed, result.to_json(G))
    return 0


def _cmd_cover(args, argv) -> int:
    G, digest = _read_graph(args)
    selection = select_cover(
        G, args.k, strategy=args.strategy, trials=args.trials, seed=args.seed
    )
    _emit(argv, digest, args.seed, selection.to_json())
    return 0


def _cmd_scrub(args, argv) -> int:
    G, digest = _read_graph(args)
    report = scrub_short_odd_cycles(G, args.r)
    payload = report.to_json()
    payload["result_edge_list"] = format_edge_list(report.graph).splitlines()
    _emit(argv, digest, args.seed, payload)
    return 0


def _cmd_oracle(args, argv) -> int:
    G, digest = _read_graph(args)
    if args.quantity == "h":
        value = exact_h(G, args.k)
    elif args.quantity == "maxcut":
        value = G.m - exact_h(G, args.k)
    elif args.quantity == "u":
        value = exact_u(G, args.k)
    elif args.quantity == "lambda":
        profile = second_eigenvalue(G)
        value = profile.lam
    else:  # spectral lower bound on h(G, k)
        profile = second_eigenvalue(G)
        cert = spectral_lower_bound(G, args.k, profile)
        mix = mixing_check(G, profile, seed=args.seed)
        _emit(argv, digest, args.seed, {
            "certificate": cert.to_json(),
            "mixing": mix,
        })
        return 0
    print(value)
    return 0


def _cmd_verify(args, argv) -> int:
    results = run_checks(args.tier, args.seed)
    for res in results:
        line = json.dumps(to_jsonable(res.to_json()), sort_keys=True,
                          separators=(",", ":"))
        sys.stdout.write(line + "\n")
    failed = [res.name for res in results if not res.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed",
          file=sys.stderr)
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 4
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built by the first main call.

    parse_args reads it without changing it and returns a fresh Namespace,
    so in-process callers of main share it.
    """
    parser = argparse.ArgumentParser(
        prog="kdelete",
        description="Partition graphs into k parts with provably few internal "
                    "edges; compute and certify max-k-cuts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, graph_input=True):
        p.add_argument("--seed", type=int, default=0,
                       help="single 64-bit seed for every random choice")
        if graph_input:
            p.add_argument("--input", default=None,
                           help="edge-list file (default: stdin)")

    p = sub.add_parser("gen", help="print a generated graph as an edge list")
    p.add_argument("--kind", choices=sorted(GENERATORS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sizes", default=None,
                   help="comma-separated part sizes for --kind multipartite")
    p.add_argument("--p", type=float, default=0.5,
                   help="edge probability for --kind random")
    p.add_argument("--blowup", type=int, default=1,
                   help="replace each vertex by this many clones")
    p.add_argument("--spec", default=None,
                   help='JSON construction spec {"kind":..,"params":..,"seed":..}')
    common(p, graph_input=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("partition", help="k-partition with a deletion ceiling")
    p.add_argument("--method", choices=PARTITION_METHODS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="forbidden-structure order (clique order, or the r of "
                        "C_{2r+1} / W_{2r+1} / odd girth 2r+1)")
    p.add_argument("--strategy", default="best",
                   choices=("best", "greedy", "expectation", "random"))
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--verify-preconditions", action="store_true",
                   help="search for the forbidden structure before running")
    common(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("maxcut", help="maximum or near-maximum l-cut")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--method", choices=CUT_METHODS, default="local")
    p.add_argument("--r", type=int, default=None,
                   help="driver only: input has no (2r+1)-cycle")
    p.add_argument("--starts", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_maxcut)

    p = sub.add_parser("cover", help="k disjoint neighborhood pieces covering "
                                     "all but ~n^2/(e k) edges")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", default="best",
                   choices=("best", "greedy", "expectation", "random"))
    p.add_argument("--trials", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("scrub", help="delete whole odd cycles shorter than 2r+1")
    p.add_argument("--r", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_scrub)

    p = sub.add_parser("oracle", help="exact small-instance quantities")
    p.add_argument("quantity", choices=("h", "maxcut", "u", "lambda", "spectral"))
    p.add_argument("--k", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the invariant suite at a size tier")
    p.add_argument("--tier", choices=("tiny", "small", "desk"), default="tiny")
    common(p, graph_input=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        for name in ("k", "l", "r"):
            value = getattr(args, name, None)
            if value is not None and value > MAX_VERTICES:
                raise CapabilityError(
                    f"--{name} is limited to {MAX_VERTICES} (asked for {value})"
                )
        return args.func(args, argv)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, PreconditionError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    except KDeleteError as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    finally:
        print(f"wall_time_seconds={time.perf_counter() - t0:.3f}",
              file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
