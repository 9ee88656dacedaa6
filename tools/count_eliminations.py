"""Count the exact eliminations of one benchmark round.

    python3 tools/count_eliminations.py --workload lie|classify|assoc [--seed 0]

Runs one round of ``perfbench/workloads.make_jobs`` through
``gradalg.cli.main``, one job after another in this process, with
``exactla._integer_echelon`` (the one elimination of the exact layer, under
``gauss_jordan``, ``Subspace.span``, ``sparse_nullspace`` and the rest)
wrapped by a counter.  Prints the total, then the count per calling
function: the innermost caller outside ``exactla``, and the function that
called it.  Run from the root of a checkout: gradalg is imported from
``src/`` there.  The output may be piped to ``head``: a closed pipe ends
the run with no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gradalg import algcore, cli, exactla  # noqa: E402

import workloads  # noqa: E402

#: the code object of the wrapper every ``@memoized`` function runs in
_MEMO_WRAPPER = algcore.memoized(lambda obj: None).__code__


def _name(frame) -> str:
    module = frame.f_globals.get("__name__", "?").removeprefix("gradalg.")
    return f"{module}.{getattr(frame.f_code, 'co_qualname', frame.f_code.co_name)}"


def _outside(frame):
    """The first frame from ``frame`` outward that is in neither exactla nor
    this module, and is not the ``memoized`` wrapper of algcore (a
    generator read by an elimination returns to exactla, then here)."""
    while frame is not None and (
        frame.f_globals is vars(exactla) or frame.f_globals is globals() or frame.f_code is _MEMO_WRAPPER
    ):
        frame = frame.f_back
    return frame


def _caller() -> str:
    """'f <- g' for the innermost function f outside exactla, called from g."""
    inner = _outside(sys._getframe(1))
    if inner is None:
        return "?"
    outer = _outside(inner.f_back)
    return _name(inner) if outer is None else f"{_name(inner)} <- {_name(outer)}"


def count_eliminations(jobs) -> Counter:
    """Run the jobs through ``cli.main`` and count the eliminations of each
    calling function; the exit codes are not checked."""
    counts: Counter = Counter()
    real = exactla._integer_echelon

    def counting(*args, **kwargs):
        counts[_caller()] += 1
        return real(*args, **kwargs)

    exactla._integer_echelon = counting
    try:
        for job in jobs:
            sys.stdin = io.StringIO(job.workspace)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(job.argv))
    finally:
        exactla._integer_echelon = real
        sys.stdin = sys.__stdin__
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Count the eliminations of one benchmark round.")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    (jobs,) = workloads.make_jobs(args.workload, args.seed, 1)
    counts = count_eliminations(jobs)
    print(f"total {sum(counts.values())} eliminations in {len(jobs)} {args.workload} jobs, seed {args.seed}")
    for caller, k in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{k:7d}  {caller}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader of the output (say ``head``) has gone: stop with no traceback,
        # and point stdout at devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
