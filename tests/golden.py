"""Byte-for-byte report contract: the sha256 of (exit code, stdout,
stderr) of every workspace command on every catalog entry, at two seeds,
against the checked-in table ``golden_reports.json``.

The module needs no pytest, so the contract can be checked on any Python
the package supports:

    PYTHONPATH=src python tests/golden.py            # exit 1 and list every changed row
    PYTHONPATH=src python tests/golden.py --record   # re-record the table

A change that alters any report, diagnostic or exit code of these runs
fails the check.  When such a change is intended, re-record the table and
say in the change why the reports moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from gradalg.catalog import catalog_names
from gradalg.cli import catalog_workspace, main

TABLE = Path(__file__).with_name("golden_reports.json")

SEEDS = (0, 7)

#: every command that takes a workspace and no --hom, by row label: the
#: command and its extra arguments.  ``--universal-only`` lists the elements
#: of every candidate kernel; the Z2 + Z4 target needs homomorphisms into a
#: group with an element of order 4.
COMMANDS = {
    "validate": ["validate"],
    "ugroup": ["ugroup"],
    "der": ["der"],
    "trank": ["trank"],
    "almost-fine": ["almost-fine"],
    "refine-canonical": ["refine-canonical"],
    "coarsen-enum": ["coarsen-enum"],
    "coarsen-enum --universal-only": ["coarsen-enum", "--universal-only"],
    "classify": ["classify", "--target", '{"invariants":[2,2]}'],
    "classify Z2+Z4": ["classify", "--target", '{"invariants":[2,4]}'],
    "rootsys": ["rootsys"],
    "root-graded": ["root-graded"],
}


def report_hash(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def sweep(name: str) -> dict[str, str]:
    """``"label seed" -> hash`` for every command row and seed on one entry."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ws.json")
        Path(path).write_text(json.dumps(catalog_workspace(name)))
        return {
            f"{label} {seed}": report_hash([command, path, "--json", "--seed", str(seed), *extra])
            for label, (command, *extra) in COMMANDS.items()
            for seed in SEEDS
        }


def changed_rows(name: str, recorded: dict[str, str]) -> list[str]:
    """The rows of one entry whose hash differs from ``recorded``, or that
    only one side has."""
    got = sweep(name)
    return sorted(k for k in got.keys() | recorded.keys() if got.get(k) != recorded.get(k))


def check() -> int:
    """Print every changed row of the table, one per line, and return the
    exit code: 0 when none changed, 1 otherwise."""
    table = json.loads(TABLE.read_text())
    changed = [f"{name}: {row}" for name in catalog_names() for row in changed_rows(name, table.get(name, {}))]
    changed += [f"{name}: not a catalog entry" for name in sorted(set(table) - set(catalog_names()))]
    print("\n".join(changed) or f"all {sum(map(len, table.values()))} rows match")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        TABLE.write_text(json.dumps({name: sweep(name) for name in catalog_names()}, indent=1, sort_keys=True) + "\n")
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit("usage: python tests/golden.py [--record]")
    sys.exit(check())
