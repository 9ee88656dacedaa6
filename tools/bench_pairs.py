"""Alternating benchmark pairs of two checkouts of gradalg.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload assoc \\
        --pairs 10 [--seed 0] [--out BENCH_assoc.json]

Runs ``perfbench/run.py --workload W --seed S --trace 0`` in the parent
checkout and in the change checkout, one after the other, ``--pairs``
times; the side that goes first alternates from pair to pair, so a drift
of the host's speed favours neither.  Each run is a fresh interpreter
started in its checkout, which imports gradalg from that checkout's
``src/``.  The JSON written to ``--out`` (default ``BENCH_<workload>.json``
in the current directory) holds every run's end-to-end metrics and
correctness, and for each metric each side's median and quartiles and the
number of pairs the change won, with the verdicts ``gain_shown``,
``within_bound`` and ``resolved`` (see ``summarize``); "better" and "bound"
are read from the change checkout's ``BENCHMARK.json``.  Give it two
checkouts made the same way, for example two ``git archive`` exports:
byte-code caches that one side has and the other lacks move ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its last output line, the result object."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = child.stdout.splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "hash_checked": details.get("hash_checked", 0),
        "nproc": details["nproc"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (name, better, bound):
    each side's spread, the pairs the change won, and three verdicts.

    - ``gain_shown``: the change won at least nine tenths of the pairs,
      ties counting for neither side, and its median is better than the
      parent's by more than the parent's q3 - q1.
    - ``within_bound``: the change's median is worse than the parent's by
      at most ``bound``, as a share of the parent's median.
    - ``resolved``: each side's q3 - q1 is at most ``bound`` times the
      parent's median, or every change run is better than every parent
      run; otherwise the runs spread too widely to read ``within_bound``
      as "unchanged"."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        sign = 1 if direction == "higher" else -1
        values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
        spreads = {side: spread(v) for side, v in values.items()}
        won = 0
        for pair in pairs.values():
            won += sign * (pair["change"]["metrics"][name] - pair["parent"]["metrics"][name]) > 0
        parent, change = spreads["parent"], spreads["change"]
        gain = sign * (change["median"] - parent["median"])
        out[name] = {
            "better": direction,
            "bound": metric["bound"],
            **spreads,
            "change_over_parent": change["median"] / parent["median"],
            "pairs_won_by_change": won,
            "pairs": len(pairs),
            "gain_shown": 10 * won >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            "within_bound": -gain <= metric["bound"] * parent["median"],
            "resolved": min(sign * v for v in values["change"]) > max(sign * v for v in values["parent"])
            or all(s["q3"] - s["q1"] <= metric["bound"] * parent["median"] for s in spreads.values()),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout the change is measured against")
    ap.add_argument("--change", required=True, type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(checkouts[side], args.workload, args.seed)
            runs.append({"pair": pair, "side": side, "position": position, **run})
            print(f"pair {pair} {side}: correct={run['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} --trace 0",
        "python": platform.python_version(),
        "all_correct": all(r["correct"] for r in runs),
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in report["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}] "
              f"change {s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}] "
              f"won {s['pairs_won_by_change']}/{s['pairs']} "
              f"gain_shown={s['gain_shown']} within_bound={s['within_bound']} resolved={s['resolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
