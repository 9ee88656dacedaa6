"""Command-line interface: parsing, dispatch, exit codes, determinism."""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg import cli
from gradalg.algcore import StructureAlgebra
from gradalg.cli import catalog_workspace, main, parse_workspace
from gradalg.exactla import RatMatrix
from gradalg.grading import Grading


def write_ws(tmp_path, doc, name="ws.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_ragged_basis_change(self, tmp_path, capsys):
        doc = catalog_workspace("cartan-sl2")
        doc["gradings"][0]["basis_change"] = [[1, 0], [0]]
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "grading 'cartan-sl2': 'basis_change': bad matrix: ragged rows" in err

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

    def test_float_structure_constant_without_flags(self, tmp_path, capsys):
        # 1.1 keeps the degrees compatible, so only the number is wrong
        doc = catalog_workspace("cartan-sl2")
        doc["algebras"][0]["flags"] = {}
        doc["algebras"][0]["operations"][0]["entries"][0][-1] = 1.1
        code, _, err = run(capsys, "validate", write_ws(tmp_path, doc))
        assert code == 1
        assert "structure constant 1.1" in err


def _paths(node, prefix=()):
    """Every position in a JSON document, outermost first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _perturbed(constant, delta):
    """A structure constant "p/q" moved by delta."""
    return str(Fraction(constant) + delta)


_FUZZ_SOURCES = {name: catalog_workspace(name) for name in ("cartan-sl2", "pauli-m2")}
_FUZZ_VALUES = ([1], [[0.5]], 1.5, True, False, float("inf"), float("-inf"), None, "x", "1/0", {})


def _fuzzed_exit_code(data, command):
    """Run command on a mutated catalog workspace and return its exit code."""
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
            return main([command, f.name])


class TestFuzzedWorkspaces:
    # 200 examples in total over the two tests
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_validate_ends_with_an_exit_code(self, data):
        assert _fuzzed_exit_code(data, "validate") in range(5)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_commands_end_with_an_exit_code(self, data):
        command = data.draw(st.sampled_from(["ugroup", "der", "rootsys", "root-graded"]))
        assert _fuzzed_exit_code(data, command) in range(5)


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
        grading_init, algebra_init = Grading.__init__, StructureAlgebra.__init__

        def counting_grading_init(self, algebra, group, degrees, basis_change=None):
            identity = RatMatrix.identity(algebra.dimension)
            pairs.add((algebra, identity if basis_change is None else basis_change))
            gradings.append(self)
            depth[0] += 1
            try:
                grading_init(self, algebra, group, degrees, basis_change)
            finally:
                depth[0] -= 1

        def counting_algebra_init(self, *args, **kwargs):
            if depth[0]:
                rebased.append(self)
            algebra_init(self, *args, **kwargs)

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


class TestExitCodes:
    def test_nonsplit_is_2(self, tmp_path, capsys):
        # cross-product algebra: the compact form of sl2 has no split torus
        doc = {
            "algebras": [
                {
                    "name": "su2",
                    "dimension": 3,
                    "flags": {"lie": True},
                    "operations": [
                        {
                            "name": "bracket",
                            "arity": 2,
                            "entries": [
                                [0, 1, 2, "1"], [1, 0, 2, "-1"],
                                [1, 2, 0, "1"], [2, 1, 0, "-1"],
                                [2, 0, 1, "1"], [0, 2, 1, "-1"],
                            ],
                        }
                    ],
                }
            ],
            "gradings": [
                {
                    "name": "trivial",
                    "algebra": "su2",
                    "group": {"free_rank": 0, "invariants": []},
                    "degrees": [[] for _ in range(3)],
                }
            ],
        }
        f = write_ws(tmp_path, doc)
        code, _, err = run(capsys, "rootsys", f)
        assert code == 2
        assert "unsupported" in err

    @pytest.mark.parametrize("command", [["classify", "--target", '{"invariants": [2]}'], ["coarsen-enum"]])
    @pytest.mark.parametrize("source", ["sl3-involution by Z4", "zero product"])
    def test_weyl_on_a_non_universal_group_is_1(self, tmp_path, capsys, command, source):
        if source == "zero product":
            # U = Z onto the trivial group: the inverse fails on the empty matrix's shape
            doc = {
                "algebras": [{"name": "z", "dimension": 1, "operations": [{"name": "m", "arity": 2, "entries": []}]}],
                "gradings": [{"name": "t", "algebra": "z", "group": {"free_rank": 0, "invariants": []}, "degrees": [[]]}],
                "weyl": [{"grading": "t", "matrix": []}],
            }
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

    def test_internal_consistency_is_4(self, tmp_path, capsys):
        # special grading refused by rootsys
        f = write_ws(tmp_path, catalog_workspace("a3-fine"))
        code, _, err = run(capsys, "rootsys", f)
        assert code == 4

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


class TestInvariantsComputedOnce:
    """Per-grading invariants are memoized on the Grading (and the Killing
    form on the algebra); every memo entry is one real computation."""

    @staticmethod
    def computations(monkeypatch, capsys, argv):
        made = []
        for cls in (Grading, StructureAlgebra):
            def recording(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                made.append(self)

            monkeypatch.setattr(cls, "__init__", recording)
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
