"""A run's objects die with it: no CLI run leaves a gradalg object, or an
object of the stdlib's indenting JSON encoder, to the cyclic garbage
collector, so reference counting frees each run's algebras, gradings,
memoized results and report writer when ``cli.main`` returns.  Counted by
``tools/count_cycles.py``, on every catalog workspace, on the checked-in
workspaces of algebras that are not semisimple (whose graded derivations
take the Leibniz path) and on the benchmark's rounds."""

import gc
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from gradalg.abgroup import FgAbGroup
from gradalg.catalog import catalog_names
from gradalg.cli import catalog_workspace, main

from golden import COMMANDS, entry_names, workspace
from helpers import SU2_WORKSPACE

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_cycles.py"
_spec = importlib.util.spec_from_file_location("count_cycles", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def _gradalg(names) -> Counter:
    return Counter(n for n in names if n.endswith("[gradalg]"))


def _json_encoder(names) -> Counter:
    """The objects of ``json.encoder`` among the names: its JSONEncoder and
    the closures of its pure-Python encoder, which refer to one another."""
    return Counter(n for n in names if n.startswith("json.encoder.") or " encoder._make_iterencode." in n)


def _left_by(argv) -> tuple[int, Counter]:
    """The exit code of ``main(argv)`` and the gradalg and json.encoder objects it left to the collector."""
    codes = []
    names = tool.uncollected(lambda: codes.append(main(argv)))
    return codes[0], _gradalg(names) + _json_encoder(names)


@pytest.fixture(scope="module")
def warm():
    """One run before any is counted: argparse's first parse leaves its own cycles."""
    main(["catalog"])


def _workspace(tmp_path, doc) -> str:
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", entry_names())
def test_no_command_leaves_a_gradalg_cycle(name, tmp_path, capsys, warm):
    # nor a json.encoder one: a --json report and the catalog document are written without it
    path = _workspace(tmp_path, workspace(name))
    runs = {label: [command, path, "--json", *extra] for label, (command, *extra) in COMMANDS.items()}
    if name in catalog_names():
        runs["catalog"] = ["catalog", name]
    left = {}
    for label, argv in runs.items():
        _, found = _left_by(argv)
        capsys.readouterr()
        if found:
            left[label] = dict(found)
    assert not left, left


def test_the_indenting_encoder_is_counted():
    names = tool.uncollected(lambda: json.dumps({"a": [1]}, indent=2, sort_keys=True))
    found = _json_encoder(names)
    assert found["json.encoder.JSONEncoder"] == 1 and sum(found.values()) > 1, names


def _incompatible():
    # [e, f] = h: e of degree 2 and f of degree -1 put h in degree 1, not 0
    doc = catalog_workspace("cartan-sl2")
    doc["gradings"][0]["degrees"][0] = [2]
    return doc


@pytest.mark.parametrize(
    "code, doc, argv",
    [
        (1, _incompatible, ["validate"]),
        (2, lambda: SU2_WORKSPACE, ["rootsys"]),
        (3, lambda: catalog_workspace("b2-skew"), ["coarsen-enum", "--cap", "1"]),
        (4, lambda: catalog_workspace("b2-skew"), ["rootsys"]),
    ],
    ids=["incompatible-1", "nonsplit-2", "cap-3", "axiom-4"],
)
def test_no_exit_code_leaves_a_gradalg_cycle(code, doc, argv, tmp_path, capsys, warm):
    path = _workspace(tmp_path, doc())
    got, found = _left_by([argv[0], path, *argv[1:]])
    capsys.readouterr()
    assert got == code
    assert not found, dict(found)


def test_a_gradalg_object_in_a_cycle_is_counted():
    def cycle():
        ring = [FgAbGroup(0, [2])]
        ring.append(ring)

    names = tool.uncollected(cycle)
    assert _gradalg(names) == Counter({"gradalg.abgroup.FgAbGroup [gradalg]": 1})
    assert "list" in names
    # the saved objects were freed, and garbage made before a count is not counted
    gc.disable()
    try:
        cycle()
        assert tool.uncollected(lambda: None) == []
    finally:
        gc.enable()


def _cheap_jobs():
    """The first cartan-sl2 ``rootsys`` and ``refine-canonical`` jobs of the seed-0 lie round."""
    (jobs,) = tool.workloads.make_jobs("lie", 0, 1)
    return [next(j for j in jobs if j.kind == f"lie/cartan-sl2/{p}") for p in ("rootsys", "refine-canonical")]


def test_main_prints_the_totals_and_each_kind(monkeypatch, capsys):
    jobs = _cheap_jobs()
    monkeypatch.setattr(tool.workloads, "make_jobs", lambda workload, seed, rounds: [jobs])
    assert tool.main(["--workload", "lie", "--seed", "0"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    # a kind's line gives its total, then one indented line per type
    kinds = {}
    for line in rest:
        if line.startswith(" "):
            kinds[kind].append(int(line[:7]))
        else:
            kind, total = line.rsplit(": ", 1)
            kinds[kind] = [int(total)]
    assert sorted(kinds) == sorted(j.kind for j in jobs)
    assert all(total == sum(types) for total, *types in kinds.values())
    everything = sum(total for total, *_ in kinds.values())
    assert first == f"2 lie jobs, seed 0: {everything} objects left to the cyclic collector, 0 of gradalg"


def test_main_exits_1_on_a_gradalg_object(monkeypatch, capsys):
    def leaky(argv):
        ring = [FgAbGroup(0, [2])]
        ring.append(ring)
        return 0

    jobs = _cheap_jobs()[:1]
    monkeypatch.setattr(tool.workloads, "make_jobs", lambda workload, seed, rounds: [jobs])
    monkeypatch.setattr(tool.cli, "main", leaky)
    assert tool.main(["--workload", "lie"]) == 1
    out = capsys.readouterr().out
    assert "1 of gradalg" in out.splitlines()[0]
    assert "gradalg.abgroup.FgAbGroup [gradalg]" in out


@pytest.mark.parametrize("workload", tool.workloads.WORKLOADS)
def test_seed_0_round_leaves_no_gradalg_object(workload):
    (jobs,) = tool.workloads.make_jobs(workload, 0, 1)
    counts = tool.count_cycles(jobs)
    left = {}
    for kind, c in counts.items():
        if found := _gradalg(c.elements()) + _json_encoder(c.elements()):
            left[kind] = dict(found)
    assert tool.gradalg_total(counts) == 0 and not left, left
