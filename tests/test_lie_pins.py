"""Byte-for-byte report pins for the Lie pipelines beyond the catalog.

The golden table (``golden.py``) covers the catalog entries only.  These
inputs reach what it does not: two root lengths (so7, sp6), BC2
(sl5-orthogonal), a rank-4 Phi (sl5), a reducible Phi (sl2+sl3) and a
63-dimensional algebra (the Cartan grading of sl8).  Each pin is the
sha256 of (exit code, stdout, stderr) of ``der``, ``trank``,
``almost-fine``, ``coarsen-enum``, ``rootsys``, ``root-graded`` and
``refine-canonical --json`` at seeds 0 and 7.  Every input is semisimple,
so the derivation commands read their D_g off the inner derivations; the
pins of those four were recorded when every D_g was solved from its
Leibniz rows.

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

COMMANDS = ("der", "trank", "almost-fine", "coarsen-enum", "rootsys", "root-graded", "refine-canonical")
SEEDS = (0, 7)

INPUTS = {
    "sl5": lambda: _cartan_sl(5).grading,
    "so7": lambda: classical_cartan_grading("B", 3),
    "sp6": lambda: classical_cartan_grading("C", 3),
    "sl4-symplectic": lambda: sl_involution_grading(4, True),
    "sl5-orthogonal": lambda: sl_involution_grading(5, False),
    "sl2+sl3": lambda: direct_sum_grading(get_catalog("cartan-sl2").grading, get_catalog("cartan-sl3").grading),
    "sl8": lambda: _cartan_sl(8).grading,
}

PINS = {
    "sl5": {
        "der 0": "7aabebd4a50772fe83d275e83a275f8bea021b2ef37c171443ff68d1e1fdf128",
        "der 7": "7aabebd4a50772fe83d275e83a275f8bea021b2ef37c171443ff68d1e1fdf128",
        "trank 0": "cb1592c41cb572cd681a1936a96aa96e079fa139ce2f92d5b5aefd8c91ea9a89",
        "trank 7": "cb1592c41cb572cd681a1936a96aa96e079fa139ce2f92d5b5aefd8c91ea9a89",
        "almost-fine 0": "2a1936cd19b8aee1163387ba2fcccde44701bf6146327a4cf378d51dd79c1cd4",
        "almost-fine 7": "2a1936cd19b8aee1163387ba2fcccde44701bf6146327a4cf378d51dd79c1cd4",
        "coarsen-enum 0": "c6bb90adc2a533b9b7d29f540c93fbd213a1d74bc04a152681661ee8016de93f",
        "coarsen-enum 7": "c6bb90adc2a533b9b7d29f540c93fbd213a1d74bc04a152681661ee8016de93f",
        "rootsys 0": "53ecec752da86a84c55c5a0f5232dbe9be09b7632dcc9b1538555593059f563d",
        "rootsys 7": "227250d3664ce67a793d725ca3cee09e7189957b0fd9463ff1f418a548fc3639",
        "root-graded 0": "49e19a82bde6d499e3cee7e94e9442c6c38dcc76cc38e6b1964dc66a472e4c55",
        "root-graded 7": "49e19a82bde6d499e3cee7e94e9442c6c38dcc76cc38e6b1964dc66a472e4c55",
        "refine-canonical 0": "782cad81183b79e46fb43a29aaffd616e18e5b65359a48feed0278973fdd71a1",
        "refine-canonical 7": "782cad81183b79e46fb43a29aaffd616e18e5b65359a48feed0278973fdd71a1",
    },
    "so7": {
        "der 0": "3cb1030215807a0ba9639c2bdf8dca172883300287f4b15811bbef5d15f00cd0",
        "der 7": "3cb1030215807a0ba9639c2bdf8dca172883300287f4b15811bbef5d15f00cd0",
        "trank 0": "41f7cb6fa04f10cb6477f000b242cb5aa9aec39cce0b6aa0e946b6e0ff90e583",
        "trank 7": "41f7cb6fa04f10cb6477f000b242cb5aa9aec39cce0b6aa0e946b6e0ff90e583",
        "almost-fine 0": "c3592467e8be04822ee73d6eded8f9b859c3dc5918948784c2949f3a73ec6fc1",
        "almost-fine 7": "c3592467e8be04822ee73d6eded8f9b859c3dc5918948784c2949f3a73ec6fc1",
        "coarsen-enum 0": "8986fc4bb104178cc8cffbc072027b0b80b0564150cf0883bdc3cc0d6afd0128",
        "coarsen-enum 7": "8986fc4bb104178cc8cffbc072027b0b80b0564150cf0883bdc3cc0d6afd0128",
        "rootsys 0": "6722d8899bda11ff3cef45a58427e3655057123c17abd79a69d5596d75c9c4c5",
        "rootsys 7": "3dd4be9cf9e25cc6ace4b3969a4677be4c128452abf2f98cd5a46743c6d73d4a",
        "root-graded 0": "4956f2337015f92d81ccff489619e85d1ccb1c21d157d8c44acdbb7c783c57f8",
        "root-graded 7": "357f5d111cfe008ee28fcc247b6c4e1c5704c0904ed84ffaabfdc6c718043b1e",
        "refine-canonical 0": "d640a81c4223d3b54e049ede7d88a30165c372de5f4e045778ca8794ba192a5c",
        "refine-canonical 7": "d640a81c4223d3b54e049ede7d88a30165c372de5f4e045778ca8794ba192a5c",
    },
    "sp6": {
        "der 0": "e442a99dee15cad13abc701c4b2db583c5a13038ac803760cfa50404150c4e97",
        "der 7": "e442a99dee15cad13abc701c4b2db583c5a13038ac803760cfa50404150c4e97",
        "trank 0": "41f7cb6fa04f10cb6477f000b242cb5aa9aec39cce0b6aa0e946b6e0ff90e583",
        "trank 7": "41f7cb6fa04f10cb6477f000b242cb5aa9aec39cce0b6aa0e946b6e0ff90e583",
        "almost-fine 0": "c3592467e8be04822ee73d6eded8f9b859c3dc5918948784c2949f3a73ec6fc1",
        "almost-fine 7": "c3592467e8be04822ee73d6eded8f9b859c3dc5918948784c2949f3a73ec6fc1",
        "coarsen-enum 0": "a10b337a5a9e3fe14c33138aadc58b4205d8178fd17c44488e157440156d8917",
        "coarsen-enum 7": "a10b337a5a9e3fe14c33138aadc58b4205d8178fd17c44488e157440156d8917",
        "rootsys 0": "de7be37cb6127808b7ac03dee7e4b52ceec5839469ff358e42b2845917717e4b",
        "rootsys 7": "662ce54f3e5c044b35cfbb05710c27f43584ddf54dc3a9f4ea2c2999617976aa",
        "root-graded 0": "437c298f95d018ab4c69e8e1c7315f796575c29d3244c1f5bde268c5a72a62b9",
        "root-graded 7": "69bf46b56ba255744901f89671052d52a6b4e09f578b56d94a05e53b6643b059",
        "refine-canonical 0": "43be739af11b3273c9b957c541f5145969201a9502f8846f808a334710a6654e",
        "refine-canonical 7": "43be739af11b3273c9b957c541f5145969201a9502f8846f808a334710a6654e",
    },
    "sl4-symplectic": {
        "der 0": "e4a5667b3c1c365f49d930070c37d355e25c5cc71e9d5ea51529aaebab41a010",
        "der 7": "e4a5667b3c1c365f49d930070c37d355e25c5cc71e9d5ea51529aaebab41a010",
        "trank 0": "9ce5a856b0a973e274af4997c6c68d457b8bccdbb2d8aa2246a245f5db5e2ceb",
        "trank 7": "9ce5a856b0a973e274af4997c6c68d457b8bccdbb2d8aa2246a245f5db5e2ceb",
        "almost-fine 0": "ed2f784f87ac48454531648440f89482897e7b0550b9e378cf5733528213d7af",
        "almost-fine 7": "ed2f784f87ac48454531648440f89482897e7b0550b9e378cf5733528213d7af",
        "coarsen-enum 0": "3d4e478623c3b64e9c0cf6e19127bbec44a06d1687a448ef6caa1350d200577b",
        "coarsen-enum 7": "3d4e478623c3b64e9c0cf6e19127bbec44a06d1687a448ef6caa1350d200577b",
        "rootsys 0": "fc4397d57abb8143e0acb1f255a684a7e8a0e4bd7e20b91e07bb67bc6f260b2f",
        "rootsys 7": "fc4397d57abb8143e0acb1f255a684a7e8a0e4bd7e20b91e07bb67bc6f260b2f",
        "root-graded 0": "7302bfe05a6c9d06f960c936933ad720b3046e3f3708b6b57b3d99c451ef78f5",
        "root-graded 7": "7302bfe05a6c9d06f960c936933ad720b3046e3f3708b6b57b3d99c451ef78f5",
        "refine-canonical 0": "8fa6028166771914de0bef6563b66fc3231474471154b7b46763e57ac456f465",
        "refine-canonical 7": "8fa6028166771914de0bef6563b66fc3231474471154b7b46763e57ac456f465",
    },
    "sl5-orthogonal": {
        "der 0": "873840b32c48a20b4a0f58d6670dbcedc6a97293d73e66447df03ec2108a1f54",
        "der 7": "873840b32c48a20b4a0f58d6670dbcedc6a97293d73e66447df03ec2108a1f54",
        "trank 0": "9ce5a856b0a973e274af4997c6c68d457b8bccdbb2d8aa2246a245f5db5e2ceb",
        "trank 7": "9ce5a856b0a973e274af4997c6c68d457b8bccdbb2d8aa2246a245f5db5e2ceb",
        "almost-fine 0": "ed2f784f87ac48454531648440f89482897e7b0550b9e378cf5733528213d7af",
        "almost-fine 7": "ed2f784f87ac48454531648440f89482897e7b0550b9e378cf5733528213d7af",
        "coarsen-enum 0": "67598b21525319d722ce08761d269d9781c163bc47f160d61ac1ff8d31d63b26",
        "coarsen-enum 7": "67598b21525319d722ce08761d269d9781c163bc47f160d61ac1ff8d31d63b26",
        "rootsys 0": "4a8abec80d65264bed1f72a1ed5820c7272ea3fa2e4795e26605319e4b819357",
        "rootsys 7": "4a8abec80d65264bed1f72a1ed5820c7272ea3fa2e4795e26605319e4b819357",
        "root-graded 0": "ad38f7a9bd405ac7c744115478799d21a8a095a57f4b79e13b3cd46c47f45ffd",
        "root-graded 7": "ad38f7a9bd405ac7c744115478799d21a8a095a57f4b79e13b3cd46c47f45ffd",
        "refine-canonical 0": "2912743493a6ac851aebce0008ee3ae1fbb48bbaf1e1f24d86e8d96f23f982d8",
        "refine-canonical 7": "2912743493a6ac851aebce0008ee3ae1fbb48bbaf1e1f24d86e8d96f23f982d8",
    },
    "sl2+sl3": {
        "der 0": "3174464a6128a4eefe545750ea0cceefe326e611b02ba9de993ca010d98e5f1f",
        "der 7": "3174464a6128a4eefe545750ea0cceefe326e611b02ba9de993ca010d98e5f1f",
        "trank 0": "41f7cb6fa04f10cb6477f000b242cb5aa9aec39cce0b6aa0e946b6e0ff90e583",
        "trank 7": "41f7cb6fa04f10cb6477f000b242cb5aa9aec39cce0b6aa0e946b6e0ff90e583",
        "almost-fine 0": "6b24dce2991b5a9323e45c1128951db8cf8d21a5bf8964f58d1317d73567f78d",
        "almost-fine 7": "6b24dce2991b5a9323e45c1128951db8cf8d21a5bf8964f58d1317d73567f78d",
        "coarsen-enum 0": "b21253caad76c0f9a21601b5a7ec08003d4c9758056bdbd28abe9f5cf2e0f193",
        "coarsen-enum 7": "b21253caad76c0f9a21601b5a7ec08003d4c9758056bdbd28abe9f5cf2e0f193",
        "rootsys 0": "e165c0178b1003397dd3c2b4e3779009202d9d6b85d24a27c1407a6159ac2616",
        "rootsys 7": "c1f1d76c63f61c51a6f3f5ba298f1b84af5e6f5f390c0fca5ae9dda42449b84d",
        "root-graded 0": "037b0fb1dab5d89ba1616e436fbb101023dde2dc66e07ef6e2294cf71aa1ff50",
        "root-graded 7": "037b0fb1dab5d89ba1616e436fbb101023dde2dc66e07ef6e2294cf71aa1ff50",
        "refine-canonical 0": "e55ed19f568b011c7debdb5430b1473a711599390e93728fcb5d316cace11799",
        "refine-canonical 7": "e55ed19f568b011c7debdb5430b1473a711599390e93728fcb5d316cace11799",
    },
    "sl8": {
        "der 0": "b81c39651e8070eba0dde2a86e7e7bf00a6a209783b361aba2bf06d5152ff95f",
        "der 7": "b81c39651e8070eba0dde2a86e7e7bf00a6a209783b361aba2bf06d5152ff95f",
        "trank 0": "c386709054aede8a9d187c125736efa56fd2109830ec37411588cc403cf0f445",
        "trank 7": "c386709054aede8a9d187c125736efa56fd2109830ec37411588cc403cf0f445",
        "almost-fine 0": "aca7a4e1d04b465e9f45d0578a8c168fffa05855cbc424ec217d509d966292b6",
        "almost-fine 7": "aca7a4e1d04b465e9f45d0578a8c168fffa05855cbc424ec217d509d966292b6",
        "coarsen-enum 0": "c1cf93c2fc176b34b48eb5910c5c09b52b05f70f5ce277afde86bbf10c2755b3",
        "coarsen-enum 7": "c1cf93c2fc176b34b48eb5910c5c09b52b05f70f5ce277afde86bbf10c2755b3",
        "rootsys 0": "09ecd954ca7d412034e797bf608d2f9267cd9e2f2728b83f886aafdfaa9f2e9f",
        "rootsys 7": "f180ed2ba938b3edae23dd04618a6f68047959c272aa91b11a72caa8f69547b4",
        "root-graded 0": "e9b11fb9b9dd1850a13aae30684fe8396e1cc38b1d12c28a397092692ffa6925",
        "root-graded 7": "3be4986e6f3c753150a2155f722352fa6629771310b82d6b118c3ba00dc1d152",
        "refine-canonical 0": "a5e27df08e9d9fa6f27d805778075339b948c25c17a9ff0068eb6d5ad5876a6d",
        "refine-canonical 7": "a5e27df08e9d9fa6f27d805778075339b948c25c17a9ff0068eb6d5ad5876a6d",
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
