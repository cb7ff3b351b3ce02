"""Run one round of kdelete commands in a fresh process; report its peak memory.

    PYTHONPATH=src python3 benchmark/probe.py < ops.jsonl

Reads one JSON line per operation from stdin, {"argv": [...], "text": "..."},
runs it through ``kdelete.cli.main`` with the text on stdin, and prints one
JSON line: the process's peak resident memory in MiB and the sha256 of each
operation's output, in order (null where the operation failed).  run.py
starts it after the timed rounds, so that ``peak_rss_mb`` counts what
kdelete uses and not the benchmark's inputs and checks.  Only the standard
library and kdelete are imported here, and one operation's input is held
at a time.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time


def run_op(cli, argv, text: str):
    """One subcommand through cli.main; returns (wall, cpu, stdout or None)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    out = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if cli.main(list(argv)) == 0:
            out = sys.stdout.getvalue()
    except (Exception, SystemExit):
        pass
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        sys.stdin, sys.stdout, sys.stderr = saved
    return wall, cpu, out


def digest(out):
    return None if out is None else hashlib.sha256(out.encode()).hexdigest()


def main() -> int:
    import kdelete.cli as cli

    source = sys.stdin
    digests = []
    for line in source:
        op = json.loads(line)
        digests.append(digest(run_op(cli, op["argv"], op["text"])[2]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak, "digests": digests}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
