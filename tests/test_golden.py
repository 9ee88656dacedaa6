"""Byte-for-byte report contract: the sha256 of (exit code, stdout,
stderr) of every workspace command on every catalog entry, at two seeds,
against a checked-in table.

A change that alters any report, diagnostic or exit code of these runs
fails here.  When such a change is intended, re-record the table with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the reports moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", catalog_names())
def test_reports_match_the_recorded_hashes(name):
    recorded = json.loads(TABLE.read_text())[name]
    got = sweep(name)
    assert sorted(got) == sorted(recorded)
    changed = sorted(k for k in got if got[k] != recorded[k])
    assert not changed, f"{name}: reports changed for {changed}"


def test_table_covers_every_catalog_entry():
    assert sorted(json.loads(TABLE.read_text())) == catalog_names()


if __name__ == "__main__":
    TABLE.write_text(json.dumps({name: sweep(name) for name in catalog_names()}, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
