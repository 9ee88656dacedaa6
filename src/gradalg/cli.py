"""Command-line front end: workspace parsing, dispatch, report emission.

A workspace is a JSON document (file argument, or ``-`` for stdin):

    {
      "algebras":  [ { algebra dict as in build_algebra } ],
      "gradings":  [ { "name", "algebra": <name>, "group": {"free_rank",
                       "invariants"}, "degrees": [[...], ...],
                       "basis_change": optional rational matrix } ],
      "homs":      [ { "name", "domain": <group>, "codomain": <group>,
                       "matrix": [[int]] } ],
      "weyl":      [ { "grading": <name>, "matrix": [[int]] } ],
      "assertions": { "weyl_complete": bool }
    }

Names are strings.  Integer fields take JSON integers only (no floats or
booleans); rational fields take JSON integers or "p/q" strings.  A
``weyl`` matrix must be an automorphism of its grading's group that maps
the support onto itself, keeps each component's dimension and permutes the
relations read off the nonzero products; ``grading.weyl_permutation`` checks
the last three, and this module only adds the name of the entry to its message.

Exit codes: 0 success, 1 input/validation error, 2 unsupported input
(irrational spectra), 3 cap exceeded, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping, Sequence

from .abgroup import DEFAULT_CAP, FgAbGroup, GroupHom
from .afine import (
    DEFAULT_SEED,
    canonical_refinement,
    classify_gradings,
    enumerate_af_coarsenings,
    is_admissible,
    is_almost_fine,
    toral_rank,
)
from .algcore import StructureAlgebra, algebra_to_dict, build_algebra, int_field, rational_field
from .catalog import catalog_names, get_catalog
from .errors import (
    AxiomFailure,
    CapExceeded,
    CrossRefError,
    GradAlgError,
    NonSplitError,
    ParseError,
    ShapeError,
    ValidationError,
    VerificationFailure,
)
from .exactla import IntMatrix, RatMatrix, Rational, sparse_rows
from .grading import (
    NOT_INVERTIBLE,
    Grading,
    graded_derivations,
    induce,
    universal_abelian_group,
    weyl_on_uab,
    weyl_permutation,
)
from .lieroot import extract_root_system, root_graded_structure

# ---------------------------------------------------------------------------
# Workspace documents
# ---------------------------------------------------------------------------


@dataclass
class WorkspaceDoc:
    algebras: dict[str, StructureAlgebra]
    gradings: dict[str, Grading]
    grading_order: list[str]
    homs: dict[str, GroupHom]
    #: grading name -> automorphisms of that grading's group
    weyl: dict[str, list[GroupHom]]
    assertions: dict[str, Any]

    def pick_grading(self, name: str | None) -> tuple[str, Grading]:
        if name is not None:
            if name not in self.gradings:
                raise CrossRefError(f"no grading named {name!r}")
            return name, self.gradings[name]
        if not self.grading_order:
            raise ValidationError("workspace contains no gradings")
        first = self.grading_order[0]
        return first, self.gradings[first]


def _group_from_dict(d: Mapping, where: str) -> FgAbGroup:
    if not isinstance(d, Mapping):
        raise ParseError(f"{where}: group literal must be a JSON object")
    try:
        return FgAbGroup(
            int_field(d.get("free_rank", 0), "free_rank"),
            [int_field(x, "invariant") for x in d.get("invariants", [])],
        )
    except (TypeError, ValueError, GradAlgError) as exc:
        raise ParseError(f"{where}: bad group literal: {exc}") from None


def group_to_dict(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "invariants": list(g.invariants)}


def _basis_columns(rows, n: int, gname: str) -> list[dict[int, Rational]]:
    """The sparse columns of a grading's ``basis_change``, a JSON array of n arrays of n entries: a
    string or object row would be read by its characters or keys, so it is rejected by name."""
    for row in rows if isinstance(rows, list) else [rows]:
        if isinstance(row, (str, Mapping)):
            raise ParseError(f"grading {gname!r}: 'basis_change': {row!r} is not a JSON array")
    try:
        m = RatMatrix([[rational_field(x, "entry") for x in row] for row in rows])
    except Exception as exc:
        raise ParseError(f"grading {gname!r}: 'basis_change': bad matrix: {exc}") from None
    if m.shape != (n, n):
        raise ValidationError(f"grading {gname!r}: {NOT_INVERTIBLE}")
    return list(sparse_rows(m.columns()))


def _fracstr(c: Rational) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def grading_to_dict(name: str, algebra_name: str, gr: Grading) -> dict:
    d = {
        "name": name,
        "algebra": algebra_name,
        "group": group_to_dict(gr.group),
        "degrees": [list(g.coords) for g in gr.degrees],
    }
    cols = gr.basis_change
    if any(col != {j: 1} for j, col in enumerate(cols)):
        d["basis_change"] = [[_fracstr(col.get(i, 0)) for col in cols] for i in range(gr.dimension)]
    return d


def _entries(doc: Mapping, key: str) -> list[Mapping]:
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, Mapping) for e in entries):
        raise ParseError(f"field {key!r} must be a list of JSON objects")
    return entries


def _hom_from(spec: Mapping, domain: FgAbGroup, codomain: FgAbGroup, where: str) -> GroupHom:
    """The hom given by the integer ``matrix`` of a ``homs`` or ``weyl`` entry; ``[]``, a map
    into the trivial group, has a column per domain generator."""
    try:
        data = [[int_field(x, "entry") for x in row] for row in spec["matrix"]]
        return GroupHom(domain, codomain, IntMatrix(data, None if data else domain.ngens))
    except GradAlgError as exc:
        raise ValidationError(f"{where}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad 'matrix': {exc}")


def _name(spec: Mapping, field: str, default: str | None, where: str) -> str | None:
    """A name field: a JSON string, or ``default`` when absent."""
    if field not in spec:
        return default
    if not isinstance(spec[field], str):
        raise ParseError(f"{where}: field {field!r} must be a string, not {spec[field]!r}")
    return spec[field]


def _algebra_from(spec: Mapping, where: str) -> StructureAlgebra:
    try:
        return build_algebra(spec)
    except GradAlgError as exc:
        raise ValidationError(f"{where}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}")


def parse_workspace(docs: Sequence[Mapping]) -> WorkspaceDoc:
    """Merge one or more parsed JSON documents into a cross-linked
    workspace; diagnostics name the offending field."""
    algebras: dict[str, StructureAlgebra] = {}
    gradings: dict[str, Grading] = {}
    order: list[str] = []
    homs: dict[str, GroupHom] = {}
    weyl: dict[str, list[GroupHom]] = {}
    assertions: dict[str, Any] = {}
    for doc in docs:
        if not isinstance(doc, Mapping):
            raise ParseError("workspace document must be a JSON object")
        for aspec in _entries(doc, "algebras"):
            alg = _algebra_from(aspec, f"algebra {aspec.get('name', '?')!r}")
            algebras[alg.name] = alg
        for gspec in _entries(doc, "gradings"):
            gname = _name(gspec, "name", f"grading{len(gradings)}", "grading")
            ref = gspec.get("algebra")
            if isinstance(ref, str):
                if ref not in algebras:
                    raise CrossRefError(
                        f"grading {gname!r}: field 'algebra' references "
                        f"unknown algebra {ref!r}"
                    )
                alg = algebras[ref]
            elif isinstance(ref, Mapping):
                alg = _algebra_from(ref, f"grading {gname!r}: field 'algebra'")
                algebras.setdefault(alg.name, alg)
            elif ref is None:
                raise ParseError(f"grading {gname!r}: missing 'algebra' field")
            else:
                raise ParseError(
                    f"grading {gname!r}: field 'algebra' must be an algebra name "
                    f"or an algebra object, not {ref!r}"
                )
            group = _group_from_dict(gspec.get("group", {}), f"grading {gname!r}")
            try:
                degrees = [
                    group.element([int_field(x, "degree entry") for x in v])
                    for v in gspec["degrees"]
                ]
            except (KeyError, TypeError, ValueError, ShapeError) as exc:
                raise ParseError(f"grading {gname!r}: bad 'degrees': {exc}")
            bc = None
            if "basis_change" in gspec:
                bc = _basis_columns(gspec["basis_change"], alg.dimension, gname)
            try:
                gr = Grading(alg, group, degrees, bc)
            except GradAlgError as exc:
                raise ValidationError(f"grading {gname!r}: {exc}")
            gradings[gname] = gr
            order.append(gname)
        for hspec in _entries(doc, "homs"):
            hname = _name(hspec, "name", f"hom{len(homs)}", "hom")
            dom = _group_from_dict(hspec.get("domain", {}), f"hom {hname!r}")
            cod = _group_from_dict(hspec.get("codomain", {}), f"hom {hname!r}")
            homs[hname] = _hom_from(hspec, dom, cod, f"hom {hname!r}")
        for wspec in _entries(doc, "weyl"):
            target = _name(wspec, "grading", None, "weyl entry")
            if target not in gradings:
                raise CrossRefError(
                    f"weyl entry: field 'grading' references unknown grading {target!r}"
                )
            gr = gradings[target]
            hom = _hom_from(wspec, gr.group, gr.group, f"weyl for {target!r}")
            if not hom.is_isomorphism():
                raise ValidationError(f"weyl for {target!r}: matrix is not an automorphism")
            try:
                weyl_permutation(gr, hom)
            except ValidationError as exc:
                raise ValidationError(f"weyl for {target!r}: {exc}") from None
            weyl.setdefault(target, []).append(hom)
        asserted = doc.get("assertions", {})
        if not isinstance(asserted, Mapping):
            raise ParseError("field 'assertions' must be a JSON object")
        if not isinstance(complete := asserted.get("weyl_complete", False), bool):
            raise ParseError(f"field 'assertions.weyl_complete' must be a JSON boolean, not {complete!r}")
        assertions.update(asserted)
    return WorkspaceDoc(algebras, gradings, order, homs, weyl, assertions)


def _load_docs(paths: Sequence[str]) -> list[Mapping]:
    docs = []
    for p in paths:
        try:
            text = sys.stdin.read() if p == "-" else Path(p).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {p}: {exc}")
        try:
            docs.append(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}")
        except RecursionError:
            raise ParseError(f"{p}: JSON nested too deeply")
    return docs


# ---------------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------------


def json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for the
    values a report holds: dicts with str keys, lists and tuples, str, int,
    bool and None (TypeError on anything else).  The stdlib writes an
    indent with its pure-Python encoder, whose closures refer to one
    another, so every report would leave them to the cyclic collector;
    this writer makes no reference cycle."""
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def _write_json(value: Any, newline: str, parts: list[str]) -> None:
    """Append the text of ``value`` to ``parts``; ``newline`` is a line break
    followed by the indent of the line that holds ``value``."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            for k, (key, item) in enumerate(sorted(value.items())):
                parts += ("," if k else "{", inner, encode_basestring_ascii(key), ": ")
                _write_json(item, inner, parts)
            parts += (newline, "}")
        else:
            for k, item in enumerate(value):
                parts += ("," if k else "[", inner)
                _write_json(item, inner, parts)
            parts += (newline, "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json_text(report))
    else:
        for line in lines:
            print(line)


def _group_str(g: FgAbGroup) -> str:
    parts = ["Z"] * g.free_rank + [f"Z{d}" for d in g.invariants]
    return " x ".join(parts) if parts else "0"


def _pick_lie_grading(ws: WorkspaceDoc, args) -> tuple[str, Grading]:
    name, gr = ws.pick_grading(args.grading)
    if "lie" not in gr.algebra.flags:
        raise ValidationError(
            f"{args.command} needs a Lie algebra, but the algebra "
            f"{gr.algebra.name!r} of grading {name!r} lacks the 'lie' flag"
        )
    return name, gr


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(ws: WorkspaceDoc, args) -> None:
    report = {"gradings": []}
    lines = []
    for name in ws.grading_order:
        gr = ws.gradings[name]
        dims = {str(k): v for k, v in sorted(gr.component_dims().items())}
        report["gradings"].append(
            {
                "name": name,
                "algebra": gr.algebra.name,
                "group": group_to_dict(gr.group),
                "support_size": len(gr.support),
                "component_dims": dims,
            }
        )
        lines.append(
            f"{name}: valid grading of {gr.algebra.name} by "
            f"{_group_str(gr.group)}, support {len(gr.support)}"
        )
    report["algebras"] = sorted(ws.algebras)
    _emit(report, lines, args.json)


def _cmd_ugroup(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    uab = universal_abelian_group(gr)
    iota = [
        {"support": list(s.coords), "class": list(uab.iota[s].coords)}
        for s in uab.support_order
    ]
    report = {
        "grading": name,
        "universal_group": group_to_dict(uab.group),
        "iota": iota,
        "alpha": [list(r) for r in uab.alpha.matrix.data],
    }
    lines = [f"U_ab({name}) = {_group_str(uab.group)}"] + [
        f"  iota{e['support']} = {e['class']}" for e in iota
    ]
    _emit(report, lines, args.json)


def _cmd_der(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    gd = graded_derivations(gr)
    entries = [
        {"degree": list(g.coords), "dim": s.dim}
        for g, s in sorted(gd.by_degree.items(), key=lambda kv: kv[0].coords)
    ]
    report = {
        "grading": name,
        "components": entries,
        "identity_dim": gd.identity_part.dim,
        "total_dim": gd.total_dim(),
    }
    lines = [f"graded derivations of {name}: total {gd.total_dim()}"] + [
        f"  degree {e['degree']}: dim {e['dim']}" for e in entries
    ]
    _emit(report, lines, args.json)


def _cmd_trank(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    td = toral_rank(gr, seed=args.seed)
    report = {
        "grading": name,
        "trank": td.trank,
        "dim_d_e": td.d_e.dim,
        "dim_cartan": td.cartan.dim,
    }
    _emit(report, [f"trank({name}) = {td.trank}  (dim D_e = {td.d_e.dim})"], args.json)


def _cmd_almost_fine(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    cert = is_almost_fine(gr, seed=args.seed)
    report = {
        "grading": name,
        "almost_fine": cert.almost_fine,
        "rank_uab": cert.rank_uab,
        "trank": cert.trank,
        "dim_d_e": cert.dim_d_e,
    }
    verdict = "true" if cert.almost_fine else "false"
    _emit(
        report,
        [f"almost-fine({name}) = {verdict}  (rank U = {cert.rank_uab}, trank = {cert.trank})"],
        args.json,
    )


def _cmd_refine_canonical(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    res = canonical_refinement(gr, seed=args.seed)
    refined_name = f"{name}*"
    gdict = grading_to_dict(refined_name, gr.algebra.name, res.refined)
    report = {
        "grading": name,
        "refined": gdict,
        "group": group_to_dict(res.refined.group),
        "support_size": len(res.refined.support),
        "weights": [
            {"degree": list(k.coords), "weight": list(v)}
            for k, v in sorted(res.weights.items(), key=lambda kv: kv[0].coords)
        ],
        "trank": res.toral.trank,
    }
    lines = [
        f"canonical refinement of {name}: group {_group_str(res.refined.group)}, "
        f"support {len(res.refined.support)}, trank {res.toral.trank}"
    ]
    _emit(report, lines, args.json)


def _cmd_coarsen_enum(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    entries = enumerate_af_coarsenings(
        gr,
        weyl_generators=weyl_on_uab(gr, ws.weyl.get(name, [])),
        universal_only=args.universal_only,
        cap=args.cap,
        seed=args.seed,
    )
    report = {"grading": name, "count": len(entries), "entries": []}
    lines = [f"almost-fine coarsenings of {name}: {len(entries)}"]
    for e in entries:
        gens = [list(x.coords) for x in e.subgroup.canonical_generators() if any(x.coords)]
        item = {
            "kernel_generators": gens,
            "kernel_order": e.subgroup.order(),
            "quotient": group_to_dict(e.quotient.codomain),
            "certificate": e.certificate,
            "orbit": e.orbit,
            "component_dims": {str(k): v for k, v in sorted(e.grading.component_dims().items())},
        }
        report["entries"].append(item)
        lines.append(
            f"  kernel {gens or '0'} -> {_group_str(e.quotient.codomain)} "
            f"(orbit {e.orbit}, {e.certificate})"
        )
    _emit(report, lines, args.json)


def _cmd_induce(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    if args.hom is None or args.hom not in ws.homs:
        raise CrossRefError("induce needs --hom naming a homomorphism in the workspace")
    alpha = ws.homs[args.hom]
    if alpha.domain != gr.group:
        raise ValidationError(
            f"hom {args.hom!r} domain {_group_str(alpha.domain)} does not match "
            f"the grading group {_group_str(gr.group)}"
        )
    out = induce(gr, alpha)
    gdict = grading_to_dict(f"{name}|{args.hom}", gr.algebra.name, out)
    report = {"grading": gdict, "support_size": len(out.support)}
    _emit(
        report,
        [f"induced grading by {_group_str(out.group)}, support {len(out.support)}"],
        args.json,
    )


def _cmd_admissible(ws, args) -> None:
    name, gr = ws.pick_grading(args.grading)
    uab = universal_abelian_group(gr)
    names = [args.hom] if args.hom else sorted(ws.homs)
    results = []
    lines = []
    for hname in names:
        if hname not in ws.homs:
            raise CrossRefError(f"no hom named {hname!r}")
        hom = ws.homs[hname]
        if hom.domain != uab.group:
            raise ValidationError(
                f"hom {hname!r} domain does not match U_ab = {_group_str(uab.group)}"
            )
        ok = is_admissible(hom.images(), hom.codomain, uab)
        results.append({"hom": hname, "admissible": ok})
        lines.append(f"{hname}: {'admissible' if ok else 'not admissible'}")
    _emit({"grading": name, "results": results}, lines, args.json)


def _cmd_classify(ws, args) -> None:
    if args.target is None:
        raise ValidationError("classify needs --target with a group literal")
    try:
        target = _group_from_dict(json.loads(args.target), "--target")
    except json.JSONDecodeError as exc:
        raise ParseError(f"--target: invalid JSON: {exc.msg}")
    except RecursionError:
        raise ParseError("--target: JSON nested too deeply")
    if not target.is_finite:
        raise ValidationError("classification target group must be finite")
    catalog = [
        (ws.gradings[name], weyl_on_uab(ws.gradings[name], ws.weyl.get(name, [])))
        for name in ws.grading_order
    ]
    entries = classify_gradings(catalog, target, cap=args.cap)
    complete = args.assert_weyl_complete or ws.assertions.get("weyl_complete", False)
    report = {
        "target": group_to_dict(target),
        "orbit_completeness": "asserted" if complete else "lower bound only",
        "entries": [],
    }
    lines = [
        f"G-gradings for G = {_group_str(target)} "
        f"({'complete orbits asserted' if complete else 'orbits are generator-limited'}):"
    ]
    for e in entries:
        src = ws.grading_order[e.source]
        item = {
            "source": src,
            "alpha": [list(r) for r in e.alpha.matrix.data],
            "orbit": e.orbit,
            "orbit_size": e.orbit_size,
            "component_dims": {str(k): v for k, v in e.component_dims.items()},
        }
        report["entries"].append(item)
        if not args.json:
            lines.append(f"  {src} orbit {e.orbit} (size {e.orbit_size}): dims {item['component_dims']}")
    _emit(report, lines, args.json)


def _cmd_rootsys(ws, args) -> None:
    name, gr = _pick_lie_grading(ws, args)
    wd, rep = extract_root_system(gr, seed=args.seed)
    report = {
        "grading": name,
        "type": rep.type_label,
        "rank": rep.rank,
        "reduced": rep.reduced,
        "flags": {
            "reflection_closure": rep.reflection_closure,
            "integral_cartan": rep.integral_cartan,
            "irreducible": rep.irreducible,
        },
        "roots": [
            {"simple_coords": [_fracstr(x) for x in rep.root_coords[a]], "dim": wd.spaces[a].dim}
            for a in rep.phi
        ],
        "zero_weight_dim": wd.zero_space().dim,
    }
    lines = [f"root system of {name}: {rep.type_label} with {len(rep.phi)} roots"]
    _emit(report, lines, args.json)


def _cmd_root_graded(ws, args) -> None:
    name, gr = _pick_lie_grading(ws, args)
    if args.refined is not None:
        if args.refined not in ws.gradings:
            raise CrossRefError(f"no grading named {args.refined!r}")
        refined = ws.gradings[args.refined]
    else:
        refined = canonical_refinement(gr, seed=args.seed).refined
    res = root_graded_structure(gr, refined, seed=args.seed)
    (dg, da), (ds, db), (dw, dc) = res.dims
    report = {
        "grading": name,
        "type": res.report.type_label,
        "grading_subalgebra_dim": dg,
        "dims": {
            "g": dg, "A": da, "s": ds, "B": db, "W": dw, "C": dc,
            "D": res.pieces[3].dim,
        },
        "c_merged_into_b": res.c_merged_into_b,
        "tables": {
            k: [
                {"torsion_class": list(u), "dim": d, "g_degree": list(gd)}
                for u, d, gd in v
            ]
            for k, v in res.tables.items()
        },
    }
    lines = [
        f"{name}: {res.report.type_label}-graded with grading subalgebra of dim {dg}",
        f"  dim L = {dg}*{da} + {ds}*{db} + {dw}*{dc} + {res.pieces[3].dim}",
    ]
    _emit(report, lines, args.json)


def catalog_workspace(name: str) -> dict:
    """Workspace document for a built-in example."""
    entry = get_catalog(name)
    alg = entry.grading.algebra
    doc = {
        "algebras": [algebra_to_dict(alg)],
        "gradings": [grading_to_dict(name, alg.name, entry.grading)],
        "weyl": [
            {"grading": name, "matrix": [list(r) for r in w.matrix.data]}
            for w in entry.weyl_on_group
        ],
        "assertions": {
            "weyl_complete": entry.weyl_complete,
            "expected": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in sorted(entry.expected.items())
            },
        },
    }
    for cname, cgr in sorted(entry.companions.items()):
        doc["gradings"].append(grading_to_dict(f"{name}-{cname}", alg.name, cgr))
    return doc


def _cmd_catalog(args) -> None:
    if args.name is None:
        for n in catalog_names():
            print(n)
        return
    print(json_text(catalog_workspace(args.name)))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "validate": _cmd_validate,
    "ugroup": _cmd_ugroup,
    "der": _cmd_der,
    "trank": _cmd_trank,
    "almost-fine": _cmd_almost_fine,
    "refine-canonical": _cmd_refine_canonical,
    "coarsen-enum": _cmd_coarsen_enum,
    "induce": _cmd_induce,
    "admissible": _cmd_admissible,
    "classify": _cmd_classify,
    "rootsys": _cmd_rootsys,
    "root-graded": _cmd_root_graded,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process: parsing leaves it unchanged and gives
    each call a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="gradalg",
        description="Gradings on finite-dimensional algebras: universal groups, "
        "toral ranks, almost-fine refinements, and root systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cap(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"cap must be at least 1, not {text}")
        return int(text)

    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("files", nargs="+", help="workspace JSON files ('-' for stdin)")
        sp.add_argument("--grading", help="grading name (default: first in the workspace)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="generic-element seed")
        sp.add_argument("--cap", type=cap, default=DEFAULT_CAP, help="enumeration cap (at least 1)")
        if name == "coarsen-enum":
            sp.add_argument(
                "--universal-only",
                action="store_true",
                help="restrict kernels to subgroups generated by support differences",
            )
        if name == "classify":
            sp.add_argument("--target", help="target group literal (JSON)")
            sp.add_argument(
                "--assert-weyl-complete",
                action="store_true",
                help="record that the supplied generators give complete orbits",
            )
        if name in ("induce", "admissible"):
            sp.add_argument("--hom", help="homomorphism name from the workspace")
        if name == "root-graded":
            sp.add_argument(
                "--refined",
                help="name of the fine refinement (default: canonical refinement)",
            )
    cp = sub.add_parser("catalog", help="emit a built-in example as a workspace")
    cp.add_argument("name", nargs="?", help="entry name (omit to list)")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error (code 2),
        # which exits 1 like any other bad input
        return 1 if exc.code else 0
    try:
        if args.command == "catalog":
            _cmd_catalog(args)
        else:
            ws = parse_workspace(_load_docs(args.files))
            _COMMANDS[args.command](ws, args)
        sys.stdout.flush()  # a report still buffered meets a closed pipe here, not at exit
    except BrokenPipeError:
        # the reader of the output (say ``head``) has gone: stop with no traceback,
        # and point stdout at devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NonSplitError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (AxiomFailure, VerificationFailure) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except GradAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
