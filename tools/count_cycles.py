"""Count the objects that each job of one benchmark round leaves to the cyclic collector.

    python3 tools/count_cycles.py --workload lie|classify|assoc [--seed 0]

Runs one round of ``perfbench/workloads.make_jobs`` through
``gradalg.cli.main``, one job after another in this process, with the
cyclic garbage collector disabled.  Reference counting frees every object
of a job that is in no reference cycle when the job returns; after each
job, ``gc.collect()`` under ``gc.DEBUG_SAVEALL`` finds the rest, the
objects that only the collector frees, and keeps them in ``gc.garbage``
to be counted by type.  Prints the totals, then per job kind (summed over
the round's jobs of that kind) the count of each type.  A gradalg object
is an instance of a type defined in gradalg, or a frame, function or
generator of gradalg's code; the tool exits 1 when the round left any.
Run from the root of a checkout: gradalg is imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gradalg  # noqa: E402
from gradalg import cli  # noqa: E402

import workloads  # noqa: E402

_PACKAGE = str(Path(gradalg.__file__).parent)


#: the types that run code, each with the attribute that holds its code object
_CODE_OF = {types.FrameType: "f_code", types.FunctionType: "__code__", types.GeneratorType: "gi_code"}


def _code(obj):
    """The code object of a frame, function or generator, else None."""
    attr = _CODE_OF.get(type(obj))
    return None if attr is None else getattr(obj, attr)


def type_name(obj) -> str:
    """``module.qualname`` of the object's type (builtins bare); for a frame,
    function or generator, its type followed by the name of its code."""
    t = type(obj)
    name = t.__qualname__ if t.__module__ == "builtins" else f"{t.__module__}.{t.__qualname__}"
    code = _code(obj)
    if code is not None:
        return f"{name} {Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"
    return name


def is_gradalg(obj) -> bool:
    """An instance of a gradalg type, or a frame, function or generator of gradalg's code."""
    if type(obj).__module__.partition(".")[0] == "gradalg":
        return True
    code = _code(obj)
    return code is not None and code.co_filename.startswith(_PACKAGE)


def uncollected(run) -> list[str]:
    """Collect, call ``run()`` with the collector disabled, then collect
    again: the type names of the objects the second collection found,
    which a third one frees.  The collector's state and debug flags are
    restored."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        names = [type_name(x) + (" [gradalg]" if is_gradalg(x) else "") for x in gc.garbage]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        gc.collect()
        if enabled:
            gc.enable()
    return names


def run_job(job) -> None:
    """One benchmark job through ``cli.main``, its output discarded; the exit code is not checked."""
    sys.stdin = io.StringIO(job.workspace)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(job.argv))
    finally:
        sys.stdin = sys.__stdin__


def count_cycles(jobs) -> dict[str, Counter]:
    """Job kind -> type name -> the objects its jobs left to the cyclic
    collector, a gradalg object's name ending in ``[gradalg]``."""
    counts: dict[str, Counter] = {}
    for job in jobs:
        counts.setdefault(job.kind, Counter()).update(uncollected(lambda: run_job(job)))
    return counts


def gradalg_total(counts: dict[str, Counter]) -> int:
    return sum(k for c in counts.values() for name, k in c.items() if name.endswith("[gradalg]"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Count the objects each benchmark job leaves to the cyclic collector.")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    (jobs,) = workloads.make_jobs(args.workload, args.seed, 1)
    counts = count_cycles(jobs)
    total = sum(sum(c.values()) for c in counts.values())
    mine = gradalg_total(counts)
    print(f"{len(jobs)} {args.workload} jobs, seed {args.seed}: {total} objects left to the cyclic collector, {mine} of gradalg")
    for kind, c in sorted(counts.items()):
        print(f"{kind}: {sum(c.values())}")
        for name, k in sorted(c.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{k:7d}  {name}")
    return 1 if mine else 0


if __name__ == "__main__":
    sys.exit(main())
