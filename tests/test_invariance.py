"""Invariants do not move with the basis: each grading against copies of
itself in random homogeneous bases (``helpers.random_component_basis``)."""

import json
import random
from pathlib import Path

import pytest

from gradalg.afine import is_almost_fine
from gradalg.catalog import catalog_names, get_catalog
from gradalg.cli import parse_workspace

from helpers import random_component_basis

WORKSPACES = Path(__file__).with_name("workspaces")

#: every catalog grading and the grading of every checked-in workspace, by name
GRADINGS = {
    **{name: lambda name=name: get_catalog(name).grading for name in catalog_names()},
    **{
        path.stem: lambda path=path: parse_workspace([json.loads(path.read_text())]).pick_grading(None)[1]
        for path in WORKSPACES.glob("*.json")
    },
}


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_toral_rank_and_almost_fine_verdict_do_not_move_with_the_basis(name):
    gr = GRADINGS[name]()
    cert = is_almost_fine(gr)
    for seed in (0, 1):
        other = is_almost_fine(random_component_basis(gr, random.Random(seed)))
        assert (other.trank, other.almost_fine) == (cert.trank, cert.almost_fine), seed
