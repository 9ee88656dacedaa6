"""Byte-for-byte report contract (``golden.py``): every workspace command's
report on every catalog entry and every checked-in workspace, at two
seeds, against the checked-in table.

A change that alters any report, diagnostic or exit code of these runs
fails here.  When such a change is intended, re-record the table with

    PYTHONPATH=src python tests/golden.py --record

and say in the change why the reports moved.
"""

import json

import pytest

from gradalg.catalog import catalog_names
from golden import COMMANDS, SEEDS, TABLE, WORKSPACES, changed_rows, entry_names
from helpers import uncertified_gradings, workspace_of


@pytest.mark.parametrize("name", entry_names())
def test_reports_match_the_recorded_hashes(name):
    changed = changed_rows(name, json.loads(TABLE.read_text())[name])
    assert not changed, f"{name}: reports changed for {changed}"


def test_table_covers_every_catalog_entry():
    # and every checked-in workspace, none of which shadows a catalog entry
    assert sorted(json.loads(TABLE.read_text())) == sorted(entry_names())
    assert not set(catalog_names()) & set(uncertified_gradings())


def test_workspaces_are_the_uncertified_gradings():
    # the checked-in documents are those the helpers build today
    docs = {p.stem: json.loads(p.read_text()) for p in WORKSPACES.glob("*.json")}
    assert docs == {name: json.loads(json.dumps(workspace_of(name, gr))) for name, gr in uncertified_gradings().items()}


#: the rows whose reports do not depend on ``--seed``: all but the split
#: torus of the canonical refinement and the root systems
SEED_FREE = [label for label in COMMANDS if label not in ("refine-canonical", "rootsys", "root-graded")]


@pytest.mark.parametrize("label", SEED_FREE)
def test_seed_free_rows_have_one_hash_per_entry(label):
    table = json.loads(TABLE.read_text())
    assert {name: len({rows[f"{label} {seed}"] for seed in SEEDS}) for name, rows in table.items()} == dict.fromkeys(table, 1)
