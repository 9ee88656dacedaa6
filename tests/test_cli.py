"""Command-line interface: parsing, dispatch, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg import cli, grading
from gradalg.algcore import StructureAlgebra, algebra_to_dict, derivations_are_inner
from gradalg.catalog import catalog_names, get_catalog
from gradalg.cli import catalog_workspace, grading_to_dict, main, parse_workspace
from gradalg.grading import Grading

import golden
from helpers import SU2_WORKSPACE, direct_sum_grading, heisenberg_grading


TRIVIAL_GROUP = {"free_rank": 0, "invariants": []}
#: a one-dimensional algebra with zero product, trivially graded, with the
#: identity of the trivial group as its weyl generator: U_ab = Z -> 0
ZERO_PRODUCT = {
    "algebras": [{"name": "z", "dimension": 1, "operations": [{"name": "m", "arity": 2, "entries": []}]}],
    "gradings": [{"name": "t", "algebra": "z", "group": TRIVIAL_GROUP, "degrees": [[]]}],
    "weyl": [{"grading": "t", "matrix": []}],
}


def write_ws(tmp_path, doc, name="ws.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _random_json(rng, depth: int = 0):
    """A random value of the kinds a report holds, nested up to four deep."""
    strings = ["", "x", "q\"uote\\back", "tab\tline\nnul\x00", "é", "中文", "\U0001f600", "\u2028", "/"]
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(strings)
    if kind == 1:
        return rng.choice([None, True, False])
    if kind in (2, 3, 4):
        return rng.choice([0, 1, -1, 10**30, -(2**70), rng.randint(-999, 999)])
    if kind == 5:
        return tuple(_random_json(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if kind == 6:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice(strings) + str(k): _random_json(rng, depth + 1) for k in range(rng.randint(0, 4))}


class TestJsonText:
    """``cli.json_text`` writes the bytes of ``json.dumps(x, indent=2,
    sort_keys=True)`` without the stdlib's indenting encoder."""

    @staticmethod
    def stdlib(value) -> str:
        return json.dumps(value, indent=2, sort_keys=True)

    def test_random_nested_values(self):
        rng = random.Random(2098)
        values = [_random_json(rng) for _ in range(3000)]
        values += [{}, [], (), {"": {}}, [[], {}], {"b": [], "a": ()}, "é\u00ff\U0010ffff", 0, None]
        for value in values:
            assert cli.json_text(value) == self.stdlib(value), value

    @pytest.mark.parametrize("name", catalog_names())
    def test_every_golden_report(self, name, tmp_path, capsys):
        # each --json report of the golden table, and the catalog document
        path = write_ws(tmp_path, catalog_workspace(name))
        reports = 0
        for command, *extra in golden.COMMANDS.values():
            for seed in golden.SEEDS:
                code, out, _ = run(capsys, command, path, "--json", "--seed", str(seed), *extra)
                if code == 0:
                    reports += 1
                    assert out == self.stdlib(json.loads(out)) + "\n"
        assert reports
        _, out, _ = run(capsys, "catalog", name)
        assert out == self.stdlib(catalog_workspace(name)) + "\n"

    @pytest.mark.parametrize("value", [1.5, {1: 2}, {("a",): 1}, {"a": {2}}, b"x"], ids=repr)
    def test_values_a_report_never_holds_are_type_errors(self, value):
        with pytest.raises(TypeError):
            cli.json_text(value)


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "b2-skew" in out and "cartan-sl2" in out

    def test_emit_and_reparse(self, capsys):
        code, out, _ = run(capsys, "catalog", "b2-skew")
        assert code == 0
        ws = parse_workspace([json.loads(out)])
        assert set(ws.gradings) == {"b2-skew", "b2-skew-fine"}
        assert ws.gradings["b2-skew"].dimension == 10

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "catalog", "nope")
        assert code == 1
        assert "nope" in err


def _algebra_with(name: str, constants: list) -> dict:
    """A two-dimensional algebra spec with one entry (0, 0, t) per constant, t = 0, 1, ..."""
    entries = [[0, 0, t, c] for t, c in enumerate(constants)]
    return {"name": name, "dimension": 2, "operations": [{"name": "m", "arity": 2, "entries": entries}]}


class TestParseErrors:
    def test_dangling_algebra_reference(self, tmp_path, capsys):
        doc = {
            "gradings": [
                {"name": "g", "algebra": "missing", "group": {}, "degrees": []}
            ]
        }
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "algebra" in err and "missing" in err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        assert "line" in err

    def test_workspace_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"algebras": [{"name": "caf\u00e9"}]}'.encode("latin-1"))
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1 and str(p) in err

    def test_workspace_nested_too_deeply(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1 and f"{p}: JSON nested too deeply" in err

    def test_target_nested_too_deeply(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl2"))
        code, _, err = run(capsys, "classify", f, "--target", "[" * 5000 + "]" * 5000)
        assert code == 1 and "--target: JSON nested too deeply" in err

    def test_incompatible_degrees(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["degrees"][0] = [5]  # breaks [e, f] = h
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/ws.json")
        assert code == 1

    def test_unknown_grading_name(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl2"))
        code, _, err = run(capsys, "trank", f, "--grading", "nope")
        assert code == 1

    @pytest.mark.parametrize("section", ["algebras", "gradings", "homs", "weyl"])
    def test_non_object_entry(self, tmp_path, capsys, section):
        code, _, err = run(capsys, "validate", write_ws(tmp_path, {section: [1]}))
        assert code == 1
        assert section in err and "Traceback" not in err

    def test_zero_denominator_structure_constant(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["algebras"][0]["operations"][0]["entries"][0][-1] = "1/0"
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "structure constant" in err and "1/0" in err

    @pytest.mark.parametrize("literal", ["1_0", " 1", "\u0661", "\uff11", "1/ 2"])
    def test_structure_constant_that_int_reads(self, tmp_path, capsys, literal):
        # int() reads each of these (underscores, spaces, non-ASCII
        # digits); the "p/q" gate before it does not
        doc = catalog_workspace("cartan-sl2")
        doc["algebras"][0]["operations"][0]["entries"][0][-1] = literal
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "structure constant" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["rootsys", "root-graded"])
    def test_root_commands_need_a_lie_algebra(self, tmp_path, capsys, command):
        f = write_ws(tmp_path, catalog_workspace("pauli-m2"))
        code, _, err = run(capsys, command, f)
        assert code == 1
        assert "'lie' flag" in err


    def test_unhashable_weyl_grading_reference(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", write_ws(tmp_path, {"weyl": [{"grading": [1]}]}))
        assert code == 1
        assert "'grading'" in err and "string" in err

    def test_unhashable_grading_name(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["name"] = ["g"]
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "'name'" in err and "string" in err

    def test_algebra_reference_of_the_wrong_type(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["algebra"] = 5
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "'algebra' must be an algebra name or an algebra object" in err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("gradings", 0, "degrees", 0), [float("inf")], "degree entry"),
            (("gradings", 0, "degrees"), [[1.9], [-1.9], [0.2]], "degree entry"),
            (("gradings", 0, "degrees", 0), [True], "degree entry"),
            (("gradings", 0, "group", "free_rank"), True, "free_rank"),
            (("weyl", 0, "matrix"), [[-1.0]], "matrix"),
            (("algebras", 0, "dimension"), 3.0, "dimension"),
            (("algebras", 0, "operations", 0, "arity"), 2.0, "arity"),
            (("algebras", 0, "operations", 0, "entries", 0, 0), 0.0, "entry index"),
            (("algebras", 0, "operations", 0, "entries", 0, -1), 1.0, "structure constant"),
            (("algebras", 0, "operations", 0, "entries", 0, -1), "1.0", "structure constant"),
            (("gradings", 0, "basis_change"), [[1.1, 0, 0], [0, 1, 0], [0, 0, 1]], "basis_change"),
            (("algebras", 0, "operations", 0, "entries", 0, -1), True, "structure constant"),
            # True == 1 == 1.0 as dict keys: the literals read before it must not let it through
            (("algebras", 0, "operations", 0, "entries"), [[0, 1, 2, 1], [1, 0, 2, "1/1"], [2, 0, 0, True]], "structure constant"),
            # a literal read in one algebra does not excuse a bad one in the next
            (("algebras",), [_algebra_with("a", ["1/2"]), _algebra_with("b", ["1/2", "1/0"])], "structure constant"),
        ],
    )
    def test_non_integer_numbers(self, tmp_path, capsys, path, value, field):
        # each value was read (truncated, rounded to a binary fraction or
        # taken as 1) or raised a traceback; all must exit 1 naming the field
        doc = catalog_workspace("cartan-sl2")
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code, _, err = run(capsys, "ugroup", write_ws(tmp_path, doc))
        assert code == 1
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("arity", [-2, -1, 0])
    def test_nonpositive_arity(self, tmp_path, capsys, arity):
        # -2 passed the entry-length check (length arity + 2 == 0 for []) and indexed entry[-2]
        doc = catalog_workspace("cartan-sl2")
        op = doc["algebras"][0]["operations"][0]
        op["arity"], op["entries"] = arity, [[] for _ in op["entries"]]
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "arity must be >= 1" in err and "Traceback" not in err

    def test_ragged_basis_change(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["basis_change"] = [[1, 0], [0]]
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "grading 'cartan-sl2': 'basis_change': bad matrix: ragged rows" in err

    @pytest.mark.parametrize("matrix, bad", [(["10", "01"], "'10'"), ([[1, 0], "01"], "'01'")])
    def test_basis_change_rows_must_be_arrays(self, tmp_path, capsys, matrix, bad):
        # read character by character, the string rows ["10", "01"] would pass as the identity
        grading = {"name": "g", "algebra": "a", "group": TRIVIAL_GROUP, "degrees": [[], []], "basis_change": [[1, 0], [0, 1]]}
        doc = {"algebras": [_algebra_with("a", [])], "gradings": [grading]}
        assert run(capsys, "validate", write_ws(tmp_path, doc))[0] == 0
        doc["gradings"][0]["basis_change"] = matrix
        code, out, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1 and out == ""
        assert err == f"error: grading 'g': 'basis_change': {bad} is not a JSON array\n"

    @pytest.mark.parametrize(
        "matrix",
        [
            # 4 x 3 with a zero last row: its sparse columns alone would pass as invertible
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 0], [0, 1], [0, 0]],
            [[1, 0, 0], [0, 1, 0]],
            [],
            [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        ],
    )
    def test_basis_change_not_invertible(self, tmp_path, capsys, matrix):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["basis_change"] = matrix
        code, out, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1 and out == ""
        assert err == "error: grading 'cartan-sl2': basis change must be an invertible n x n matrix\n"

    def test_basis_change_written_back_as_parsed(self):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["basis_change"] = [[2, 0, 0], [0, "1/2", 0], [0, 0, -1]]
        gr = parse_workspace([doc]).gradings["cartan-sl2"]
        assert gr.basis_change == ({0: 2}, {1: Fraction(1, 2)}, {2: -1})
        emitted = grading_to_dict("cartan-sl2", "cartan-sl2", gr)["basis_change"]
        assert emitted == [["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "-1"]]
        assert "basis_change" not in grading_to_dict("g", "a", get_catalog("cartan-sl2").grading)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dimension", -1, "dimension -1 is negative"),
            ("name", ["x"], "name ['x'] is not a string"),
            ("operations", {"bracket": {"arity": 2, "entries": []}}, "operations {'bracket'"),
            ("flags", {"lie": "no"}, "flags {'lie': 'no'} is not an object of booleans"),
            ("flags", ["lie"], "flags ['lie'] is not an object of booleans"),
            ("operations", [{"arity": 2, "entries": 5}], "entries 5 is not a list"),
            ("operations", [{"arity": 2, "entries": [5]}], "entry 5 is not a list"),
            ("operations", [5], "operation 5 is not an object"),
        ],
    )
    def test_malformed_algebra_field(self, tmp_path, capsys, field, value, message):
        spec = {"name": "a", "dimension": 1, "operations": []}
        spec[field] = value
        code, _, err = run(capsys, "validate", write_ws(tmp_path, {"algebras": [spec]}))
        assert code == 1
        assert message in err and "Traceback" not in err

    def test_degree_of_the_wrong_length(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["degrees"] = [[1, 0], [-1], [0]]
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "grading 'cartan-sl2': bad 'degrees': coordinate length mismatch" in err

    @pytest.mark.parametrize(
        "name, failure", [("cartan-sl3", "antisymmetric"), ("pauli-m2", "associativity")]
    )
    def test_perturbed_structure_constant(self, tmp_path, capsys, name, failure):
        doc = catalog_workspace(name)
        for k, entry in enumerate(doc["algebras"][0]["operations"][0]["entries"]):
            perturbed = copy.deepcopy(doc)
            perturbed["algebras"][0]["operations"][0]["entries"][k][-1] = _perturbed(entry[-1], 1)
            code, _, err = run(capsys, "validate", write_ws(tmp_path, perturbed))
            assert code == 1
            assert failure in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_weyl_complete_that_is_not_a_boolean(self, tmp_path, capsys, value):
        # a string "false" is truthy: it must not turn into an asserted completeness
        doc = catalog_workspace("cartan-sl2")
        doc["assertions"] = {"weyl_complete": value}
        code, out, err = run(capsys, "classify", write_ws(tmp_path, doc), "--target", '{"invariants": [2]}')
        assert (code, out) == (1, "")
        assert err == f"error: field 'assertions.weyl_complete' must be a JSON boolean, not {value!r}\n"

    @pytest.mark.parametrize("value", [True, False])
    def test_weyl_complete_boolean(self, tmp_path, capsys, value):
        doc = catalog_workspace("cartan-sl2")
        doc["assertions"] = {"weyl_complete": value}
        code, out, _ = run(capsys, "classify", write_ws(tmp_path, doc), "--target", '{"invariants": [2]}', "--json")
        assert code == 0
        assert json.loads(out)["orbit_completeness"] == ("asserted" if value else "lower bound only")

    def test_float_structure_constant_without_flags(self, tmp_path, capsys):
        # 1.1 keeps the degrees compatible, so only the number is wrong
        doc = catalog_workspace("cartan-sl2")
        doc["algebras"][0]["flags"] = {}
        doc["algebras"][0]["operations"][0]["entries"][0][-1] = 1.1
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "structure constant 1.1" in err


#: Z2 x Z4: a map sending its generator of order 2 to the one of order 4 is not well defined
_Z2_Z4 = {"free_rank": 0, "invariants": [2, 4]}


def _literal_workspace(section: str, matrix) -> dict:
    """A one-dimensional zero-product algebra graded by Z2 x Z4, and one
    ``section`` entry ("homs" or "weyl"), a map Z2 x Z4 -> Z2 x Z4 given by
    ``matrix``, or with no matrix when it is None."""
    entry = {"name": "h", "domain": _Z2_Z4, "codomain": _Z2_Z4} if section == "homs" else {"grading": "t"}
    if matrix is not None:
        entry["matrix"] = matrix
    return {
        "algebras": [{"name": "z", "dimension": 1, "operations": [{"name": "m", "arity": 2, "entries": []}]}],
        "gradings": [{"name": "t", "algebra": "z", "group": _Z2_Z4, "degrees": [[0, 0]]}],
        section: [entry],
    }


class TestHomLiterals:
    """A ``homs`` and a ``weyl`` matrix are read by one parser; each path
    ends with the same exit code and message as before it was shared."""

    VALID = "t: valid grading of z by Z2 x Z4, support 1\n"

    @pytest.mark.parametrize(
        "matrix, hom_err, weyl_err",
        [
            (None, "hom 'h': bad 'matrix': 'matrix'", "weyl for 't': bad 'matrix': 'matrix'"),
            (
                [[1.0, 0], [0, 1]],
                "hom 'h': bad 'matrix': entry 1.0 is not a JSON integer",
                "weyl for 't': bad 'matrix': entry 1.0 is not a JSON integer",
            ),
            ([[1, 0], [0]], "hom 'h': ragged rows", "weyl for 't': ragged rows"),
            (
                [[0, 0], [1, 1]],
                "hom 'h': bad 'matrix': not well defined: d_0 times the generator image is nonzero",
                "weyl for 't': bad 'matrix': not well defined: d_0 times the generator image is nonzero",
            ),
            ([[1, 0], [0, 2]], None, "weyl for 't': matrix is not an automorphism"),
            ([[3, 0], [0, 5]], None, None),
        ],
    )
    def test_each_path(self, tmp_path, capsys, matrix, hom_err, weyl_err):
        for section, err in (("homs", hom_err), ("weyl", weyl_err)):
            f = write_ws(tmp_path, _literal_workspace(section, matrix))
            expected = (1, "", f"error: {err}\n") if err else (0, self.VALID, "")
            assert run(capsys, "validate", f) == expected

    def test_weyl_swap_with_entries_beyond_the_invariants(self, tmp_path, capsys):
        # pauli-m2's Weyl swap on Z2 x Z2, written with every entry moved by 2
        commands = [
            ("classify", "--target", '{"invariants": [2, 2]}'),
            ("classify", "--target", '{"invariants": [2, 4]}'),
            ("coarsen-enum",),
        ]
        reports = []
        for swap in ([[0, 1], [1, 0]], [[2, 1], [1, 2]]):
            doc = catalog_workspace("pauli-m2")
            assert len(doc["weyl"]) == 1
            doc["weyl"][0]["matrix"] = swap
            f = write_ws(tmp_path, doc)
            reports.append([run(capsys, cmd, f, *options, *json_flag)
                            for cmd, *options in commands for json_flag in ((), ("--json",))])
        assert reports[0] == reports[1]
        assert all(code == 0 and not err for code, _, err in reports[0])
        # the swap joins two homs in each orbit of the Z2 x Z2 classification
        assert "orbit 0 (size 2)" in reports[0][0][1]


class TestWeylGenerators:
    """A Weyl generator must map the grading's support onto itself, keep
    each component's dimension and permute the relation rows; one that does
    not exits 1 naming its entry."""

    def test_shear_on_cartan_sl3_is_rejected(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl3")
        doc["weyl"].append({"grading": "cartan-sl3", "matrix": [[1, 1], [0, 1]]})
        f = write_ws(tmp_path, doc)
        for argv in (("classify", f, "--target", '{"invariants": [3]}'), ("validate", f)):
            assert run(capsys, *argv) == (
                1,
                "",
                "error: weyl for 'cartan-sl3': matrix [[1, 1], [0, 1]] is not in the Weyl group: "
                "it maps degree [-1, -1] (dimension 1) to [-2, -1] outside the support\n",
            )

    def test_a_swap_of_components_of_different_dimensions_is_rejected(self, tmp_path, capsys):
        # the swap of Z2 x Z2 maps the support {(0, 1), (1, 0)} onto itself, but not 1 onto 2 dimensions
        group = {"free_rank": 0, "invariants": [2, 2]}
        doc = {
            "algebras": [{"name": "z", "dimension": 3, "operations": [{"name": "m", "arity": 2, "entries": []}]}],
            "gradings": [{"name": "t", "algebra": "z", "group": group, "degrees": [[1, 0], [1, 0], [0, 1]]}],
            "weyl": [{"grading": "t", "matrix": [[0, 1], [1, 0]]}],
        }
        assert run(capsys, "validate", write_ws(tmp_path, doc)) == (
            1,
            "",
            "error: weyl for 't': matrix [[0, 1], [1, 0]] is not in the Weyl group: "
            "it maps degree [0, 1] (dimension 1) to [1, 0] of dimension 2\n",
        )

    def test_a_generator_that_breaks_a_product_is_rejected(self, tmp_path, capsys):
        # u^2 = u, x^2 = u, y^2 = u, xy = z graded by its universal group Z2 x Z2; the shear
        # fixes (0, 1), swaps (1, 0) and (1, 1) and keeps every dimension, but x^2 = u has no
        # image z^2 != 0
        group = {"free_rank": 0, "invariants": [2, 2]}
        entries = [[0, 0, 0, 1], [1, 1, 0, 1], [2, 2, 0, 1], [1, 2, 3, 1]]
        doc = {
            "algebras": [{"name": "a", "dimension": 4, "operations": [{"name": "m", "arity": 2, "entries": entries}]}],
            "gradings": [{"name": "t", "algebra": "a", "group": group, "degrees": [[0, 0], [1, 0], [0, 1], [1, 1]]}],
            "weyl": [{"grading": "t", "matrix": [[1, 0], [1, 1]]}],
        }
        f = write_ws(tmp_path, doc)
        for argv in (("validate", f), ("classify", f, "--target", '{"invariants": [2, 2]}')):
            assert run(capsys, *argv) == (
                1,
                "",
                "error: weyl for 't': matrix [[1, 0], [1, 1]] is not in the Weyl group: it maps the relation "
                "-1*[0, 0] + 2*[1, 0] of a nonzero product to -1*[0, 0] + 2*[1, 1], which no nonzero product gives\n",
            )
        # without the generator the same grading is valid
        del doc["weyl"]
        assert run(capsys, "validate", write_ws(tmp_path, doc))[0] == 0

    @pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "perfbench" / "catalog").glob("*.json")), ids=lambda p: p.stem)
    def test_every_benchmark_catalog_generator_is_accepted(self, capsys, path):
        doc = json.loads(path.read_text())
        assert run(capsys, "validate", str(path))[0] == 0
        assert sum(map(len, parse_workspace([doc]).weyl.values())) == len(doc.get("weyl", []))

    @pytest.mark.parametrize("name", catalog_names())
    def test_every_catalog_generator_is_accepted(self, tmp_path, capsys, name):
        doc = catalog_workspace(name)
        assert run(capsys, "validate", write_ws(tmp_path, doc))[0] == 0
        assert len(parse_workspace([doc]).weyl.get(name, [])) == len(doc["weyl"]) == len(get_catalog(name).weyl_on_group)


def _paths(node, prefix=()):
    """Every position in a JSON document, outermost first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _perturbed(constant, delta):
    """A structure constant "p/q" moved by delta."""
    return str(Fraction(constant) + delta)


def _fuzz_source(name: str) -> dict:
    """A catalog workspace with a hom "h" from its grading group, which is
    also its universal group, onto Z2, so hom fields get mutated too."""
    doc = catalog_workspace(name)
    group = doc["gradings"][0]["group"]
    ngens = group["free_rank"] + len(group["invariants"])
    doc["homs"] = [{"name": "h", "domain": copy.deepcopy(group), "codomain": {"free_rank": 0, "invariants": [2]},
                    "matrix": [[1] * ngens]}]
    return doc


_FUZZ_SOURCES = {name: _fuzz_source(name) for name in ("cartan-sl2", "pauli-m2")}
_FUZZ_VALUES = ([1], [[0.5]], -1, 10**30, 1.5, True, False, float("inf"), float("-inf"), None, "x", "1/0", {})


def _fuzzed_exit_code(data, command, *options):
    """Run command, with options, on a mutated catalog workspace and return its exit code."""
    doc = copy.deepcopy(_FUZZ_SOURCES[data.draw(st.sampled_from(sorted(_FUZZ_SOURCES)))])
    if data.draw(st.booleans()):
        # one structure constant off: the flag checks must reject it cleanly
        entries = doc["algebras"][0]["operations"][0]["entries"]
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        entry[-1] = _perturbed(entry[-1], data.draw(st.sampled_from([-1, 1, Fraction(1, 2)])))
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = data.draw(st.sampled_from(_FUZZ_VALUES + ("drop",)))
        if value == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        f.write(json.dumps(doc))
        f.flush()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, f.name, *options])


class TestFuzzedWorkspaces:
    # 300 examples in total over the three tests; the slowest example seen
    # took 150 ms on a 2-core machine, so an example that takes 2 s is a loop
    # over a size the document states, not over what it holds
    @settings(max_examples=100, deadline=2000)
    @given(st.data())
    def test_validate_ends_with_an_exit_code(self, data):
        assert _fuzzed_exit_code(data, "validate") in range(5)

    @settings(max_examples=100, deadline=2000)
    @given(st.data())
    def test_commands_end_with_an_exit_code(self, data):
        command = data.draw(st.sampled_from(["ugroup", "der", "rootsys", "root-graded"]))
        assert _fuzzed_exit_code(data, command) in range(5)

    @settings(max_examples=100, deadline=2000)
    @given(st.data())
    def test_grading_commands_end_with_an_exit_code(self, data):
        argv = data.draw(
            st.sampled_from(
                [
                    ("trank",),
                    ("almost-fine",),
                    ("refine-canonical",),
                    ("coarsen-enum",),
                    ("coarsen-enum", "--universal-only"),
                    ("classify", "--target", '{"invariants": [2, 2]}'),
                    ("induce", "--hom", "h"),
                    ("admissible", "--hom", "h"),
                ]
            )
        )
        assert _fuzzed_exit_code(data, *argv) in range(5)


@pytest.mark.parametrize("dimension", [100, 200, 10**30])
def test_validate_cost_follows_the_stored_constants(tmp_path, dimension):
    # cartan-sl2's six structure constants in a larger dimension: the flag
    # checks visit the stored keys, so validate reaches the degree count
    # at once instead of looping over dimension^3 basis triples
    doc = catalog_workspace("cartan-sl2")
    doc["algebras"][0]["dimension"] = dimension
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "gradalg.cli", "validate", write_ws(tmp_path, doc)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert out.returncode == 1
    assert "one degree per basis vector required" in out.stderr


class TestHappyPaths:
    def test_validate(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("pauli-m2"))
        code, out, _ = run(capsys, "validate", f)
        assert code == 0
        assert "pauli-m2" in out and "Z2 x Z2" in out

    def test_trank_json(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl3"))
        code, out, _ = run(capsys, "trank", f, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["trank"] == 2 and rep["dim_d_e"] == 2

    def test_ugroup(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("a3-fine"))
        code, out, _ = run(capsys, "ugroup", f, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["universal_group"] == {"free_rank": 0, "invariants": [2, 2, 2, 2]}

    def test_almost_fine(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("b2-skew"))
        code, out, _ = run(capsys, "almost-fine", f, "--json")
        rep = json.loads(out)
        assert code == 0 and rep["almost_fine"] and rep["trank"] == 0

    def test_der(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("pauli-m2"))
        code, out, _ = run(capsys, "der", f, "--json")
        rep = json.loads(out)
        assert code == 0 and rep["identity_dim"] == 0 and rep["total_dim"] == 3

    def test_refine_canonical(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("sl3-involution"))
        code, out, _ = run(capsys, "refine-canonical", f, "--json")
        rep = json.loads(out)
        assert code == 0
        assert rep["group"] == {"free_rank": 1, "invariants": [2]}
        assert rep["support_size"] == 8

    def test_rootsys(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("sl3-involution"))
        code, out, _ = run(capsys, "rootsys", f, "--json")
        rep = json.loads(out)
        assert code == 0 and rep["type"] == "BC1" and not rep["reduced"]
        assert sorted(r["dim"] for r in rep["roots"]) == [1, 1, 2, 2]

    def test_root_graded(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("sl3-involution"))
        code, out, _ = run(capsys, "root-graded", f, "--json")
        rep = json.loads(out)
        assert code == 0
        d = rep["dims"]
        assert d["g"] * d["A"] + d["s"] * d["B"] + d["W"] * d["C"] + d["D"] == 8
        assert rep["c_merged_into_b"]

    def test_coarsen_enum_with_weyl(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("a3-fine"))
        code, out, _ = run(capsys, "coarsen-enum", f, "--json")
        rep = json.loads(out)
        assert code == 0 and rep["count"] == 3
        nontrivial = [e for e in rep["entries"] if e["kernel_order"] == 2]
        assert len(nontrivial) == 2
        assert nontrivial[0]["orbit"] == nontrivial[1]["orbit"]

    def test_classify(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl2"))
        code, out, _ = run(
            capsys, "classify", f, "--target", '{"invariants": [2, 2]}', "--json"
        )
        rep = json.loads(out)
        assert code == 0
        assert sum(e["orbit_size"] for e in rep["entries"]) == 4

    def test_classify_rebases_each_algebra_and_basis_once(self, tmp_path, capsys, monkeypatch):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl3"))
        pairs, gradings, rebased, depth = set(), [], [], [0]
        grading_init, grading_fill, algebra_init = Grading.__init__, Grading._fill, StructureAlgebra.__init__

        # every grading, constructed or induced, sets its fields in _fill; only __init__ re-bases
        def counting_grading_fill(self, algebra, group, degrees, basis_change, *rest):
            pairs.add((algebra, tuple(tuple(sorted(c.items())) for c in basis_change)))
            gradings.append(self)
            grading_fill(self, algebra, group, degrees, basis_change, *rest)

        def counting_grading_init(self, *args, **kwargs):
            depth[0] += 1
            try:
                grading_init(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        def counting_algebra_init(self, *args, **kwargs):
            if depth[0]:
                rebased.append(self)
            algebra_init(self, *args, **kwargs)

        monkeypatch.setattr(Grading, "_fill", counting_grading_fill)
        monkeypatch.setattr(Grading, "__init__", counting_grading_init)
        monkeypatch.setattr(StructureAlgebra, "__init__", counting_algebra_init)
        code, _, _ = run(capsys, "classify", f, "--target", '{"invariants": [2, 2]}', "--json")
        assert code == 0
        assert len(pairs) < len(gradings)
        assert len(rebased) <= len(pairs)

    def test_induce_and_admissible(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["homs"] = [
            {
                "name": "parity",
                "domain": {"free_rank": 1, "invariants": []},
                "codomain": {"free_rank": 0, "invariants": [2]},
                "matrix": [[1]],
            }
        ]
        f = write_ws(tmp_path, doc)
        code, out, _ = run(capsys, "induce", f, "--hom", "parity", "--json")
        rep = json.loads(out)
        assert code == 0 and rep["support_size"] == 2
        code, out, _ = run(capsys, "admissible", f, "--hom", "parity", "--json")
        rep = json.loads(out)
        assert code == 0 and rep["results"][0]["admissible"]


class TestTrivialGroupWorkspaces:
    """Maps into and out of the trivial group, whose matrices have no rows
    or no columns; the reports are pinned."""

    def test_hom_onto_the_trivial_group(self, tmp_path, capsys):
        # "matrix": [] for Z -> 0 is 0 x 1: it takes the domain's generator count
        doc = catalog_workspace("cartan-sl2")
        doc["homs"] = [
            {"name": "kill", "domain": {"free_rank": 1, "invariants": []}, "codomain": TRIVIAL_GROUP, "matrix": []}
        ]
        f = write_ws(tmp_path, doc)
        assert run(capsys, "induce", f, "--hom", "kill") == (0, "induced grading by 0, support 1\n", "")
        code, out, err = run(capsys, "induce", f, "--hom", "kill", "--json")
        assert (code, err) == (0, "") and json.loads(out) == {
            "grading": {"algebra": "sl2", "degrees": [[], [], []], "group": TRIVIAL_GROUP, "name": "cartan-sl2|kill"},
            "support_size": 1,
        }
        assert run(capsys, "admissible", f, "--hom", "kill") == (0, "kill: admissible\n", "")
        code, out, err = run(capsys, "admissible", f, "--hom", "kill", "--json")
        assert (code, err) == (0, "") and json.loads(out) == {
            "grading": "cartan-sl2",
            "results": [{"admissible": True, "hom": "kill"}],
        }

    def test_zero_dimensional_algebra(self, tmp_path, capsys):
        doc = {
            "algebras": [{"name": "zero", "dimension": 0, "operations": [{"name": "m", "arity": 2, "entries": []}]}],
            "gradings": [{"name": "t", "algebra": "zero", "group": TRIVIAL_GROUP, "degrees": []}],
        }
        f = write_ws(tmp_path, doc)
        assert run(capsys, "validate", f) == (0, "t: valid grading of zero by 0, support 0\n", "")
        code, out, err = run(capsys, "validate", f, "--json")
        assert (code, err) == (0, "") and json.loads(out) == {
            "algebras": ["zero"],
            "gradings": [
                {"algebra": "zero", "component_dims": {}, "group": TRIVIAL_GROUP, "name": "t", "support_size": 0}
            ],
        }
        # alpha: U_ab = 0 -> Z2 is 1 x 0
        code, out, err = run(capsys, "classify", f, "--target", '{"invariants": [2]}', "--json")
        assert (code, err) == (0, "") and json.loads(out) == {
            "entries": [{"alpha": [[]], "component_dims": {}, "orbit": 0, "orbit_size": 1, "source": "t"}],
            "orbit_completeness": "lower bound only",
            "target": {"free_rank": 0, "invariants": [2]},
        }

    def test_zero_product_with_a_weyl_entry_on_the_trivial_group(self, tmp_path, capsys):
        f = write_ws(tmp_path, ZERO_PRODUCT)
        code, out, err = run(capsys, "validate", f, "--json")
        assert (code, err) == (0, "") and json.loads(out) == {
            "algebras": ["z"],
            "gradings": [
                {"algebra": "z", "component_dims": {"()": 1}, "group": TRIVIAL_GROUP, "name": "t", "support_size": 1}
            ],
        }
        # alpha: U_ab = Z -> 0 is 0 x 1
        code, out, err = run(capsys, "ugroup", f, "--json")
        assert (code, err) == (0, "") and json.loads(out) == {
            "alpha": [],
            "grading": "t",
            "iota": [{"class": [1], "support": []}],
            "universal_group": {"free_rank": 1, "invariants": []},
        }
        code, out, err = run(capsys, "trank", f, "--json")
        assert (code, err) == (0, "") and json.loads(out) == {"dim_cartan": 1, "dim_d_e": 1, "grading": "t", "trank": 1}


class TestExitCodes:
    def test_nonsplit_is_2(self, tmp_path, capsys):
        f = write_ws(tmp_path, SU2_WORKSPACE)
        code, _, err = run(capsys, "rootsys", f)
        assert code == 2
        assert "unsupported" in err

    @pytest.mark.parametrize("command", [["classify", "--target", '{"invariants": [2]}'], ["coarsen-enum"]])
    @pytest.mark.parametrize("source", ["sl3-involution by Z4", "zero product"])
    def test_weyl_on_a_non_universal_group_is_1(self, tmp_path, capsys, command, source):
        if source == "zero product":
            # U = Z onto the trivial group: alpha is not injective
            doc = ZERO_PRODUCT
        else:
            # U = Z2 into Z4 by doubling: injective, not onto
            doc = catalog_workspace("sl3-involution")
            g = doc["gradings"][0]
            g["group"] = {"free_rank": 0, "invariants": [4]}
            g["degrees"] = [[2 * d] for (d,) in g["degrees"]]
            doc["weyl"] = [{"grading": g["name"], "matrix": [[-1]]}]
            doc["assertions"] = {}
        code, out, err = run(capsys, command[0], write_ws(tmp_path, doc), *command[1:])
        assert (code, out) == (1, "")
        assert err == (
            "error: weyl generators need the grading group to be universal "
            "(alpha: U_ab -> G is not an isomorphism)\n"
        )

    def test_refinement_on_another_algebra_is_1(self, tmp_path, capsys):
        # the same degrees on the abelian Lie algebra of dimension 8 do not refine cartan-sl3
        doc = catalog_workspace("cartan-sl3")
        doc["algebras"].append(
            {"name": "ab8", "dimension": 8, "flags": {"lie": True}, "operations": [{"name": "bracket", "arity": 2, "entries": []}]}
        )
        doc["gradings"].append({**doc["gradings"][0], "name": "fake-fine", "algebra": "ab8"})
        f = write_ws(tmp_path, doc)
        code, out, err = run(capsys, "root-graded", f, "--grading", "cartan-sl3", "--refined", "fake-fine")
        assert (code, out, err) == (1, "", "error: second grading does not refine the first\n")

    @pytest.mark.parametrize(
        "target, fake, message",
        [
            ("gradalg.grading.Grading.is_refinement_of", lambda fine, coarse: False,
             "canonical refinement failed containment check"),
            ("gradalg.afine.induce", lambda fine, hom: fine, "projection does not recover the original grading"),
        ],
        ids=["containment", "projection"],
    )
    def test_failed_self_check_of_the_canonical_refinement_is_4(self, target, fake, message, tmp_path, capsys, monkeypatch):
        # no input can make the refinement's own output fail its checks
        monkeypatch.setattr(target, fake)
        f = write_ws(tmp_path, catalog_workspace("sl3-involution"))
        assert run(capsys, "refine-canonical", f) == (4, "", f"internal consistency failure: {message}\n")

    def test_internal_consistency_is_4(self, tmp_path, capsys):
        # special grading refused by rootsys
        f = write_ws(tmp_path, catalog_workspace("a3-fine"))
        code, _, err = run(capsys, "rootsys", f)
        assert code == 4

    def test_root_graded_on_a_semisimple_algebra_that_is_not_simple_is_4(self, tmp_path, capsys):
        # rootsys reads the reducible Phi of sl2 + sl3 (A1+A2); root-graded
        # builds the adapted Phi-grading of a simple algebra only
        gr = direct_sum_grading(get_catalog("cartan-sl2").grading, get_catalog("cartan-sl3").grading)
        f = write_ws(tmp_path, {"algebras": [algebra_to_dict(gr.algebra)], "gradings": [grading_to_dict("s", gr.algebra.name, gr)]})
        assert run(capsys, "rootsys", f)[:2] == (0, "root system of s: A1+A2 with 8 roots\n")
        code, out, err = run(capsys, "root-graded", f)
        assert (code, out, err) == (4, "", "internal consistency failure: the ambient algebra is not simple\n")

    @pytest.mark.parametrize("command", ["rootsys", "root-graded"])
    @pytest.mark.parametrize(
        "entries", [[[0, 1, 1, "1"], [1, 0, 1, "-1"]], []], ids=["solvable", "abelian"]
    )
    def test_not_semisimple_is_4(self, tmp_path, capsys, command, entries):
        # [e0, e1] = e1 graded by Z, and the abelian algebra on the same degrees
        doc = {
            "algebras": [
                {
                    "name": "b",
                    "dimension": 2,
                    "flags": {"lie": True},
                    "operations": [{"name": "bracket", "arity": 2, "entries": entries}],
                }
            ],
            "gradings": [
                {
                    "name": "z",
                    "algebra": "b",
                    "group": {"free_rank": 1, "invariants": []},
                    "degrees": [[0], [1]],
                }
            ],
        }
        code, _, err = run(capsys, command, write_ws(tmp_path, doc))
        assert code == 4
        assert "Killing form is degenerate: not semisimple" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trank", "--seed", "abc", "ws.json"], "invalid int value"),
            (["frobnicate"], "invalid choice"),
            (["trank"], "the following arguments are required: files"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_error_is_1(self, capsys, argv, message):
        # exit 2 means "unsupported over Q"; a usage error is bad input
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "usage: gradalg" in err and message in err

    @pytest.mark.parametrize(
        "argv, cap",
        [(["classify", "--target", '{"invariants": [2, 2]}'], "-5"), (["coarsen-enum"], "0")],
    )
    def test_cap_below_1_is_a_usage_error(self, tmp_path, capsys, argv, cap):
        # not a cap that every enumeration exceeds (exit 3)
        f = write_ws(tmp_path, catalog_workspace("cartan-sl3"))
        code, _, err = run(capsys, *argv, f, "--cap", cap)
        assert code == 1
        assert "usage: gradalg" in err and f"cap must be at least 1, not {cap}" in err

    def test_help_is_0(self, capsys):
        code, out, _ = run(capsys, "-h")
        assert code == 0
        assert "usage: gradalg" in out


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        f = write_ws(tmp_path, catalog_workspace("sl3-involution"))
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "refine-canonical", f, "--json", "--seed", "7")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_built_once_and_nothing_leaks(self, tmp_path, capsys, monkeypatch):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl2"))
        seen = []
        for command in ("coarsen-enum", "classify", "root-graded"):
            monkeypatch.setitem(cli._COMMANDS, command, lambda ws, args: seen.append(vars(args)))
        cli._build_parser.cache_clear()
        target = '{"invariants": [2]}'
        calls = [
            (["coarsen-enum", f, "--universal-only"], "universal_only", True),
            (["coarsen-enum", f], "universal_only", False),
            (["classify", f, "--target", target], "target", target),
            (["classify", f], "target", None),
            (["root-graded", f, "--refined", "x"], "refined", "x"),
            (["root-graded", f], "refined", None),
        ]
        assert [main(argv) for argv, _, _ in calls] == [0] * 6
        assert [(option, args[option]) for args, (_, option, _) in zip(seen, calls)] == [
            (option, value) for _, option, value in calls
        ]
        # a usage error exits 1 and --help exits 0, also when repeated
        again = (["bogus"], ["bogus"], ["--help"], ["--help"], ["classify", "--help"])
        assert [main(argv) for argv in again] == [1, 1, 0, 0, 0]
        capsys.readouterr()
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 10)


class LeibnizSystemBuilt(Exception):
    pass


def _no_leibniz_system(*args, **kwargs):
    raise LeibnizSystemBuilt


class TestCertifiedPipelinesBuildNoLeibnizSystem:
    """On a certified algebra (every derivation inner) the derivation
    pipelines read D_g off the inner derivations: none builds the Leibniz
    degree system of ``grading._derivation_system``."""

    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("command", ["der", "trank", "almost-fine", "refine-canonical", "coarsen-enum"])
    def test_catalog(self, name, command, tmp_path, capsys, monkeypatch):
        assert derivations_are_inner(get_catalog(name).grading.algebra)
        f = write_ws(tmp_path, catalog_workspace(name))
        monkeypatch.setattr(grading, "_derivation_system", _no_leibniz_system)
        code, out, _ = run(capsys, command, f, "--json")
        assert code == 0 and json.loads(out)

    def test_an_uncertified_algebra_builds_it(self, tmp_path, capsys, monkeypatch):
        gr = heisenberg_grading()
        assert not derivations_are_inner(gr.algebra)
        doc = {"algebras": [algebra_to_dict(gr.algebra)], "gradings": [grading_to_dict("h", gr.algebra.name, gr)]}
        f = write_ws(tmp_path, doc)
        monkeypatch.setattr(grading, "_derivation_system", _no_leibniz_system)
        with pytest.raises(LeibnizSystemBuilt):
            run(capsys, "der", f)


class TestInvariantsComputedOnce:
    """Per-grading invariants are memoized on the Grading (and the Killing
    form on the algebra); every memo entry is one real computation."""

    @staticmethod
    def computations(monkeypatch, capsys, argv):
        made = []
        # a grading, constructed or induced, gets its fields (and its memo) in _fill
        for cls, method in ((Grading, "_fill"), (StructureAlgebra, "__init__")):
            def recording(self, *args, _init=getattr(cls, method), **kwargs):
                _init(self, *args, **kwargs)
                made.append(self)

            monkeypatch.setattr(cls, method, recording)
        code, _, _ = run(capsys, *argv)
        monkeypatch.undo()
        assert code == 0
        counts = {}
        for obj in made:
            for fn, *_args in obj._memo:
                counts[fn.__name__] = counts.get(fn.__name__, 0) + 1
        return counts

    def test_root_graded(self, tmp_path, capsys, monkeypatch):
        f = write_ws(tmp_path, catalog_workspace("sl3-involution"))
        counts = self.computations(monkeypatch, capsys, ["root-graded", f])
        # one grading and its canonical refinement; sl3 and the grading
        # subalgebra
        assert counts["toral_rank"] == 2
        assert counts["graded_derivations"] == 2
        assert counts["killing_form"] == 2

    def test_coarsen_enum(self, tmp_path, capsys, monkeypatch):
        f = write_ws(tmp_path, catalog_workspace("cartan-sl3"))
        counts = self.computations(monkeypatch, capsys, ["coarsen-enum", f])
        assert counts["universal_abelian_group"] == 1
