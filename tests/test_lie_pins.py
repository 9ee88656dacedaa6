"""Byte-for-byte report pins for the Lie pipelines beyond the catalog.

The golden table (``golden.py``) covers the catalog entries only.  These
inputs reach what it does not: two root lengths (so7, sp6), BC2
(sl5-orthogonal), a rank-4 Phi (sl5) and a reducible Phi (sl2+sl3).  Each
pin is the sha256 of (exit code, stdout, stderr) of ``rootsys``,
``root-graded`` and ``refine-canonical --json`` at seeds 0 and 7.

When a change moves these reports on purpose, print the new pins with

    PYTHONPATH=src:tests python tests/test_lie_pins.py

copy them into ``PINS`` and say in the change why the reports moved.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from gradalg.catalog import _cartan_sl, get_catalog
from gradalg.cli import algebra_to_dict, grading_to_dict

from golden import report_hash
from helpers import classical_cartan_grading, direct_sum_grading, sl_involution_grading

COMMANDS = ("rootsys", "root-graded", "refine-canonical")
SEEDS = (0, 7)

INPUTS = {
    "sl5": lambda: _cartan_sl(5).grading,
    "so7": lambda: classical_cartan_grading("B", 3),
    "sp6": lambda: classical_cartan_grading("C", 3),
    "sl4-symplectic": lambda: sl_involution_grading(4, True),
    "sl5-orthogonal": lambda: sl_involution_grading(5, False),
    "sl2+sl3": lambda: direct_sum_grading(get_catalog("cartan-sl2").grading, get_catalog("cartan-sl3").grading),
}

PINS = {
    "sl5": {
        "rootsys 0": "53ecec752da86a84c55c5a0f5232dbe9be09b7632dcc9b1538555593059f563d",
        "rootsys 7": "227250d3664ce67a793d725ca3cee09e7189957b0fd9463ff1f418a548fc3639",
        "root-graded 0": "49e19a82bde6d499e3cee7e94e9442c6c38dcc76cc38e6b1964dc66a472e4c55",
        "root-graded 7": "49e19a82bde6d499e3cee7e94e9442c6c38dcc76cc38e6b1964dc66a472e4c55",
        "refine-canonical 0": "782cad81183b79e46fb43a29aaffd616e18e5b65359a48feed0278973fdd71a1",
        "refine-canonical 7": "782cad81183b79e46fb43a29aaffd616e18e5b65359a48feed0278973fdd71a1",
    },
    "so7": {
        "rootsys 0": "6722d8899bda11ff3cef45a58427e3655057123c17abd79a69d5596d75c9c4c5",
        "rootsys 7": "3dd4be9cf9e25cc6ace4b3969a4677be4c128452abf2f98cd5a46743c6d73d4a",
        "root-graded 0": "4956f2337015f92d81ccff489619e85d1ccb1c21d157d8c44acdbb7c783c57f8",
        "root-graded 7": "357f5d111cfe008ee28fcc247b6c4e1c5704c0904ed84ffaabfdc6c718043b1e",
        "refine-canonical 0": "d640a81c4223d3b54e049ede7d88a30165c372de5f4e045778ca8794ba192a5c",
        "refine-canonical 7": "d640a81c4223d3b54e049ede7d88a30165c372de5f4e045778ca8794ba192a5c",
    },
    "sp6": {
        "rootsys 0": "de7be37cb6127808b7ac03dee7e4b52ceec5839469ff358e42b2845917717e4b",
        "rootsys 7": "662ce54f3e5c044b35cfbb05710c27f43584ddf54dc3a9f4ea2c2999617976aa",
        "root-graded 0": "437c298f95d018ab4c69e8e1c7315f796575c29d3244c1f5bde268c5a72a62b9",
        "root-graded 7": "69bf46b56ba255744901f89671052d52a6b4e09f578b56d94a05e53b6643b059",
        "refine-canonical 0": "43be739af11b3273c9b957c541f5145969201a9502f8846f808a334710a6654e",
        "refine-canonical 7": "43be739af11b3273c9b957c541f5145969201a9502f8846f808a334710a6654e",
    },
    "sl4-symplectic": {
        "rootsys 0": "fc4397d57abb8143e0acb1f255a684a7e8a0e4bd7e20b91e07bb67bc6f260b2f",
        "rootsys 7": "fc4397d57abb8143e0acb1f255a684a7e8a0e4bd7e20b91e07bb67bc6f260b2f",
        "root-graded 0": "7302bfe05a6c9d06f960c936933ad720b3046e3f3708b6b57b3d99c451ef78f5",
        "root-graded 7": "7302bfe05a6c9d06f960c936933ad720b3046e3f3708b6b57b3d99c451ef78f5",
        "refine-canonical 0": "8fa6028166771914de0bef6563b66fc3231474471154b7b46763e57ac456f465",
        "refine-canonical 7": "8fa6028166771914de0bef6563b66fc3231474471154b7b46763e57ac456f465",
    },
    "sl5-orthogonal": {
        "rootsys 0": "4a8abec80d65264bed1f72a1ed5820c7272ea3fa2e4795e26605319e4b819357",
        "rootsys 7": "4a8abec80d65264bed1f72a1ed5820c7272ea3fa2e4795e26605319e4b819357",
        "root-graded 0": "ad38f7a9bd405ac7c744115478799d21a8a095a57f4b79e13b3cd46c47f45ffd",
        "root-graded 7": "ad38f7a9bd405ac7c744115478799d21a8a095a57f4b79e13b3cd46c47f45ffd",
        "refine-canonical 0": "2912743493a6ac851aebce0008ee3ae1fbb48bbaf1e1f24d86e8d96f23f982d8",
        "refine-canonical 7": "2912743493a6ac851aebce0008ee3ae1fbb48bbaf1e1f24d86e8d96f23f982d8",
    },
    "sl2+sl3": {
        "rootsys 0": "e165c0178b1003397dd3c2b4e3779009202d9d6b85d24a27c1407a6159ac2616",
        "rootsys 7": "c1f1d76c63f61c51a6f3f5ba298f1b84af5e6f5f390c0fca5ae9dda42449b84d",
        "root-graded 0": "037b0fb1dab5d89ba1616e436fbb101023dde2dc66e07ef6e2294cf71aa1ff50",
        "root-graded 7": "037b0fb1dab5d89ba1616e436fbb101023dde2dc66e07ef6e2294cf71aa1ff50",
        "refine-canonical 0": "e55ed19f568b011c7debdb5430b1473a711599390e93728fcb5d316cace11799",
        "refine-canonical 7": "e55ed19f568b011c7debdb5430b1473a711599390e93728fcb5d316cace11799",
    },
}


def sweep(name: str) -> dict[str, str]:
    """``"command seed" -> hash`` for every command and seed on one input."""
    gr = INPUTS[name]()
    doc = {"algebras": [algebra_to_dict(gr.algebra)], "gradings": [grading_to_dict("gr", gr.algebra.name, gr)]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ws.json"
        path.write_text(json.dumps(doc))
        return {
            f"{command} {seed}": report_hash([command, str(path), "--json", "--seed", str(seed)])
            for command in COMMANDS
            for seed in SEEDS
        }


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_reports_match_the_pins(name):
    assert sweep(name) == PINS[name]


if __name__ == "__main__":
    json.dump({name: sweep(name) for name in INPUTS}, sys.stdout, indent=1)
    print()
