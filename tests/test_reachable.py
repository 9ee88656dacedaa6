"""The program is what it runs.  Every top-level function and class in
``src/gradalg`` is reached from an entry point of the program: ``cli.main``,
the names the README's quick start imports, and the names
``perfbench/tracer.py`` rebinds.  Code that only tests call lives in
``tests/helpers.py``.  The quick start itself runs and prints what its
comments say."""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import gradalg

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(gradalg.__file__).parent

_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def quick_start() -> str:
    """The Python block under "Quick start in Python" in README.md."""
    text = (ROOT / "README.md").read_text()
    return re.search(r"Quick start in Python:\n\n```python\n(.*?)```", text, re.S).group(1)


def program_roots() -> set[tuple[str, str]]:
    """(module, name) of each entry point: ``cli.main``, each name the quick start
    imports from a gradalg module, each name of ``tracer.TRACED`` and the owner of
    each ``tracer.COUNTED`` attribute, and ``afine.cartan_candidates``, which the
    tracer wraps as a generator."""
    roots = {("cli", "main"), ("afine", "cartan_candidates")}
    for node in ast.walk(ast.parse(quick_start())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("gradalg."):
            roots |= {(node.module.removeprefix("gradalg."), alias.name) for alias in node.names}
    roots |= {(module, name) for module, names in tracer.TRACED.items() for name in names}
    roots |= {(module, owner or name) for module, owner, name in tracer.COUNTED}
    return roots


def unreached(sources: dict[str, str], roots) -> list[str]:
    """The "module.name" of each top-level function or class in ``sources``
    (module name -> source text) that no root reaches, sorted.  A definition
    uses each name that a ``Name`` in its body mentions, resolved in its own
    module: a definition there, or the definition a relative import binds to
    it.  An ``Attribute`` ``x.name`` may be read off any object, so it uses
    every definition of that name.  Module-level statements other than
    imports and definitions run at import, so their mentions are uses."""
    defs, imported, by_name, used = {}, {}, {}, []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                defs[module, node.name] = node
                by_name.setdefault(node.name, []).append((module, node.name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                used.append((module, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imported[module, alias.asname or alias.name] = (node.module, alias.name)

    def resolve(key):
        while key not in defs and key in imported:
            key = imported[key]
        return key if key in defs else None

    for root in roots:
        assert resolve(root), f"entry point {'.'.join(root)} names no definition"
    seen = {resolve(root) for root in roots}
    used += [(key[0], defs[key]) for key in seen]
    while used:
        module, node = used.pop()
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        targets = {resolve((module, name)) for name in names} | {d for attr in attrs for d in by_name.get(attr, ())}
        for key in targets - seen - {None}:
            seen.add(key)
            used.append((key[0], defs[key]))
    return sorted(f"{module}.{name}" for module, name in defs.keys() - seen)


def test_unreached_flags_a_definition_no_root_reaches():
    sources = {
        "a": """
from .b import helper as h, Shape
TABLE = {"x": table_entry}
def main():
    return h(1) + obj.method()
def table_entry():
    pass
def dead():
    return main()
class Unused(Shape):
    def method(self):
        return dead_too()
def dead_too():
    pass
""",
        "b": """
from .c import Shape
def helper(x):
    return x.leaf
def leaf():
    pass
def orphan():
    pass
""",
        "c": """
class Shape:
    pass
""",
    }
    assert unreached(sources, {("a", "main")}) == ["a.Unused", "a.dead", "a.dead_too", "b.orphan", "c.Shape"]
    assert unreached(sources, {("a", "main"), ("b", "Shape")}) == ["a.Unused", "a.dead", "a.dead_too", "b.orphan"]


def test_every_definition_is_reached_from_the_program():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    dead = unreached(sources, program_roots())
    assert not dead, f"no program entry point reaches {', '.join(dead)}"


def test_readme_quick_start_prints_what_its_comments_say():
    code = quick_start()
    assert "# almost_fine=False, trank=1" in code and '# "BC1"' in code
    assert "# Z x Z2 grading, support 8" in code
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    verdict, label = out.getvalue().splitlines()
    assert "almost_fine=False" in verdict and "trank=1" in verdict
    assert label == "BC1"
    refined = namespace["res"].refined
    assert repr(refined.group) == "FgAbGroup(Z + Z_2)" and len(refined.support) == 8
