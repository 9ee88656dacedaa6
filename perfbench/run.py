"""Benchmark of gradalg's CLI pipelines.

    python3 perfbench/run.py --workload lie|classify|assoc --seed N \\
        --seconds 20 --trace 0|1

Run from the root of a checkout: gradalg is imported from ``src/`` there.
The inputs are generated from the seed before timing; then one client
calls ``gradalg.cli.main(argv)`` for one job after another (a closed loop
in one process, no threads) and every report is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round
untraced in a child interpreter and then traced in this one, and prints
the per-layer metrics.  The last
line of standard output is the result object; the line before it holds
the run's details (sample counts, failures, Python version, nproc).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
#: the run length the reference hashes are recorded for
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: child interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 9
#: a tail percentile must leave at least this many jobs beyond it
TAIL_BEYOND = 10


def import_cli():
    """gradalg.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "gradalg" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no gradalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradalg.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gradalg":
        raise SystemExit(f"perfbench: imported gradalg from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until ``import gradalg.cli``
    returns in it (perf_counter is one system-wide clock on Linux): as
    measured, and rescaled by a speed probe the child runs right after the
    import, on the CPU it ran on.  Probes in this process tracked the
    children's import time worse than no probe at all."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import gradalg.cli; "
        f"done = time.perf_counter(); sys.path.insert(0, {str(HERE)!r}); import speed; "
        "print(done, sorted(speed.probe() for _ in range(3))[1])"
    )
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        done, probe = map(float, child.stdout.split())
        raw.append(done - start)
        scaled.append(raw[-1] * speed.REFERENCE_S / probe)
    return raw, scaled


def run_job(cli, job: workloads.Job) -> tuple[object, str, float]:
    """(exit code or escaped exception, stdout, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(job.workspace)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception as exc:  # an escaped exception fails the job, not the run
        rc = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:
        rc = f"SystemExit({exc.code})"
    finally:
        sys.stdin = sys.__stdin__
    return rc, out.getvalue(), time.perf_counter() - start


def run_loop(cli, jobs, tracer=None) -> tuple[list, list[float], float]:
    """Each job's result, each job's time rescaled by the speed probes
    around it, and the loop's wall time as measured."""
    gc.collect()
    results, probes = [], [speed.probe()]
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        results.append(run_job(cli, job))
        probes.append(speed.probe())
    wall = time.perf_counter() - start
    return results, [r[2] * s for r, s in zip(results, speed.scales(probes))], wall


def failures(jobs, results, ref: dict, hashes: list[str] | None) -> dict[int, list[str]]:
    """Job index -> problems, for every job that failed a check."""
    out = {}
    for i, (job, (rc, stdout, _)) in enumerate(zip(jobs, results)):
        problems = checks.check(job, rc, stdout, ref)
        if hashes is not None:
            if i >= len(hashes):
                problems.append("no recorded reference hash for this job")
            elif checks.digest(stdout) != hashes[i]:
                problems.append("report hash differs from the recorded reference")
        if problems:
            out[i] = problems
    return out


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND jobs beyond it
    (nearest rank), and its value; the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    p = 100 * (n - TAIL_BEYOND) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, args, ref: dict) -> tuple[dict, dict, int, int]:
    setup_raw, setup = measure_setup()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    jobs = [j for batch in workloads.make_jobs(args.workload, args.seed, rounds) for j in batch]
    results, times, wall = run_loop(cli, jobs)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    hashes = ref["hashes"][args.workload] if args.seed == DEFAULT_SEED else None
    bad = failures(jobs, results, ref, hashes)
    p, tail_s = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "jobs_per_s": metric((len(jobs) - len(bad)) / sum(times), "1/s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_mib, "MiB"),
    }
    details = {
        "rounds": rounds,
        "jobs": len(jobs),
        "loop_s": wall,
        "loop_rescaled_s": sum(times),
        "tail_percentile": p,
        "error_rate": len(bad) / len(jobs),
        "setup_samples_s": setup_raw,
        "setup_rescaled_s": setup,
        "hash_checked": min(len(jobs), len(hashes)) if hashes is not None else 0,
        "failures": {f"{i} {jobs[i].kind}": v for i, v in sorted(bad.items())[:20]},
    }
    return metrics, details, len(jobs), len(bad)


def untraced_round(workload: str, seed: int) -> None:
    """Run one round untraced and print, as one JSON line, each report's
    sha256, each job's rescaled time, the loop's wall time and the failed
    checks.  ``traced`` runs this in a child interpreter, so that neither
    round starts warm from the other."""
    cli = import_cli()
    (jobs,) = workloads.make_jobs(workload, seed, 1)
    results, times, wall = run_loop(cli, jobs)
    ref = checks.load_reference()
    hashes = ref["hashes"][workload] if seed == DEFAULT_SEED else None
    print(json.dumps({
        "hashes": [checks.digest(stdout) for _, stdout, _ in results],
        "times": times,
        "wall": wall,
        "failures": failures(jobs, results, ref, hashes),
    }))


def traced(cli, args, ref: dict) -> tuple[dict, dict, int, int]:
    from tracer import METRICS, Tracer

    (jobs,) = workloads.make_jobs(args.workload, args.seed, 1)
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"run.untraced_round({args.workload!r}, {args.seed})"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=170, check=True,
    )
    plain = json.loads(child.stdout.splitlines()[-1])
    tracer = Tracer()
    tracer.install()
    try:
        seen, seen_times, traced_wall = run_loop(cli, jobs, tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    hashes = ref["hashes"][args.workload] if args.seed == DEFAULT_SEED else None
    bad = {int(i): problems for i, problems in plain["failures"].items()}
    for i, problems in failures(jobs, seen, ref, hashes).items():
        bad.setdefault(i, []).extend(f"traced: {p}" for p in problems)
    for i, (digest, (_, stdout, _)) in enumerate(zip(plain["hashes"], seen)):
        if checks.digest(stdout) != digest:
            bad.setdefault(i, []).append("traced report differs from the untraced one")
    values = tracer.metrics()
    values["trace.overhead_ratio"] = sum(seen_times) / sum(plain["times"])
    metrics = {name: metric(values[name], unit) for name, unit in METRICS.items()}
    details = {
        "jobs": len(jobs),
        "untraced_s": plain["wall"],
        "traced_s": traced_wall,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": {f"{i} {jobs[i].kind}": v for i, v in sorted(bad.items())[:20]},
    }
    return metrics, details, 2 * len(jobs), len(bad)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_cli()
    ref = checks.load_reference()
    measure = traced if args.trace else end_to_end
    metrics, details, attempted, failed = measure(cli, args, ref)
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
