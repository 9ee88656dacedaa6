"""Byte-for-byte report contract (``golden.py``): every workspace command's
report on every catalog entry, at two seeds, against the checked-in table.

A change that alters any report, diagnostic or exit code of these runs
fails here.  When such a change is intended, re-record the table with

    PYTHONPATH=src python tests/golden.py --record

and say in the change why the reports moved.
"""

import json

import pytest

from gradalg.catalog import catalog_names
from golden import TABLE, changed_rows


@pytest.mark.parametrize("name", catalog_names())
def test_reports_match_the_recorded_hashes(name):
    changed = changed_rows(name, json.loads(TABLE.read_text())[name])
    assert not changed, f"{name}: reports changed for {changed}"


def test_table_covers_every_catalog_entry():
    assert sorted(json.loads(TABLE.read_text())) == catalog_names()
