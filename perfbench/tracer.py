"""Per-layer tracing of gradalg from outside the package.

``Tracer.install`` rebinds each listed callable at every gradalg module
namespace that holds it, and wraps the ``__init__`` of the listed classes,
so calls between modules and within a module are both seen.  A call opens
a frame on a stack; on return its inclusive time goes to ``total_s``, the
time not covered by traced children to ``self_s``, and the frame is kept
as a span (name, start, end, parent span, job).  The hottest leaves keep
only their counts and summed times.  A few internals are wrapped only to
count what they do, with no frame (``COUNTED``).  ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from functools import wraps

MODULES = ("exactla", "abgroup", "algcore", "grading", "afine", "lieroot", "catalog", "cli")

#: (module, callable) pairs that are traced; classes are traced by constructor
TRACED = {
    "cli": ("main", "parse_workspace"),
    "algcore": ("StructureAlgebra", "build_algebra", "killing_form", "is_simple",
                "subalgebra_structure"),
    "grading": ("Grading", "graded_derivations", "universal_abelian_group", "induce"),
    "afine": ("toral_rank", "is_almost_fine", "canonical_refinement",
              "enumerate_af_coarsenings", "classify_gradings", "is_admissible"),
    "abgroup": ("enumerate_homs", "enumerate_subgroups", "group_from_presentation",
                "torsion_and_free", "GroupHom"),
    "exactla": ("rref", "nullspace", "RatMatrix", "inverse", "rational_roots",
                "semisimple_part", "simultaneous_eigenspaces", "smith_normal_form",
                "column_hnf"),
    "lieroot": ("extract_root_system", "is_non_special", "weight_decomposition",
                "analyze_root_system", "root_graded_structure", "verify_phi_grading"),
}

#: called so often that one span per call would swamp the trace
HOT_LEAVES = {"exactla.rref", "exactla.RatMatrix", "abgroup.GroupHom"}

#: (module, class or None, attribute) of internals that are only counted:
#: the flag checks a StructureAlgebra runs (``checked_triples``) and the
#: per-degree kernel solves of graded_derivations (``degrees_solved``)
COUNTED = (
    ("algcore", "StructureAlgebra", "_verify_lie"),
    ("algcore", "StructureAlgebra", "_verify_associative"),
    ("grading", None, "_incremental_kernel"),
)

#: the per-layer metrics the traced run reports, with their units
METRICS = {
    "cli.main.self_s": "s",
    "cli.parse_workspace.total_s": "s",
    "cli.parse_workspace.self_s": "s",
    "algcore.StructureAlgebra.calls": "count",
    "algcore.StructureAlgebra.total_s": "s",
    "algcore.StructureAlgebra.checked_triples": "count",
    "algcore.build_algebra.total_s": "s",
    "algcore.killing_form.calls": "count",
    "algcore.killing_form.total_s": "s",
    "algcore.is_simple.calls": "count",
    "algcore.is_simple.total_s": "s",
    "algcore.subalgebra_structure.total_s": "s",
    "grading.Grading.calls": "count",
    "grading.Grading.total_s": "s",
    "grading.Grading.self_s": "s",
    "grading.graded_derivations.calls": "count",
    "grading.graded_derivations.total_s": "s",
    "grading.graded_derivations.self_s": "s",
    "grading.graded_derivations.unknowns": "count",
    "grading.graded_derivations.degrees_solved": "count",
    "grading.graded_derivations.degrees_nonzero": "count",
    "grading.graded_derivations.useful_ratio": "ratio",
    "grading.universal_abelian_group.calls": "count",
    "grading.universal_abelian_group.total_s": "s",
    "grading.induce.calls": "count",
    "grading.induce.total_s": "s",
    "afine.toral_rank.calls": "count",
    "afine.toral_rank.total_s": "s",
    "afine.toral_rank.self_s": "s",
    "afine.cartan_candidates.yields": "count",
    "afine.is_almost_fine.calls": "count",
    "afine.canonical_refinement.calls": "count",
    "afine.canonical_refinement.total_s": "s",
    "afine.canonical_refinement.self_s": "s",
    "afine.enumerate_af_coarsenings.total_s": "s",
    "afine.enumerate_af_coarsenings.self_s": "s",
    "afine.enumerate_af_coarsenings.candidates": "count",
    "afine.enumerate_af_coarsenings.accept_ratio": "ratio",
    "afine.classify_gradings.total_s": "s",
    "afine.classify_gradings.self_s": "s",
    "afine.is_admissible.calls": "count",
    "afine.is_admissible.accept_ratio": "ratio",
    "abgroup.enumerate_homs.total_s": "s",
    "abgroup.enumerate_homs.items": "count",
    "abgroup.enumerate_subgroups.total_s": "s",
    "abgroup.enumerate_subgroups.items": "count",
    "abgroup.group_from_presentation.calls": "count",
    "abgroup.group_from_presentation.total_s": "s",
    "abgroup.torsion_and_free.calls": "count",
    "abgroup.torsion_and_free.total_s": "s",
    "abgroup.GroupHom.calls": "count",
    "abgroup.GroupHom.total_s": "s",
    "exactla.rref.calls": "count",
    "exactla.rref.self_s": "s",
    "exactla.nullspace.calls": "count",
    "exactla.nullspace.total_s": "s",
    "exactla.RatMatrix.calls": "count",
    "exactla.RatMatrix.entries": "count",
    "exactla.RatMatrix.self_s": "s",
    "exactla.inverse.calls": "count",
    "exactla.inverse.total_s": "s",
    "exactla.rational_roots.calls": "count",
    "exactla.rational_roots.total_s": "s",
    "exactla.semisimple_part.calls": "count",
    "exactla.semisimple_part.total_s": "s",
    "exactla.semisimple_part.nonsplit": "count",
    "exactla.simultaneous_eigenspaces.total_s": "s",
    "exactla.smith_normal_form.calls": "count",
    "exactla.smith_normal_form.total_s": "s",
    "exactla.column_hnf.total_s": "s",
    "lieroot.extract_root_system.total_s": "s",
    "lieroot.extract_root_system.self_s": "s",
    "lieroot.is_non_special.calls": "count",
    "lieroot.is_non_special.total_s": "s",
    "lieroot.weight_decomposition.calls": "count",
    "lieroot.weight_decomposition.total_s": "s",
    "lieroot.analyze_root_system.total_s": "s",
    "lieroot.root_graded_structure.total_s": "s",
    "lieroot.root_graded_structure.self_s": "s",
    "lieroot.verify_phi_grading.total_s": "s",
    "trace.overhead_ratio": "ratio",
}


class _Frame:
    __slots__ = ("name", "start", "covered", "span")

    def __init__(self, name: str, start: float, span: int | None):
        self.name = name
        self.start = start
        self.covered = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: (name, start, end, parent span index or -1, job)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.job = -1
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        self._depth[name] += 1
        span = None
        if name not in HOT_LEAVES:
            span = len(self.spans)
            parent = next((f.span for f in reversed(self._stack) if f.span is not None), -1)
            self.spans.append((name, 0.0, 0.0, parent, self.job))
        frame = _Frame(name, time.perf_counter(), span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        st = self.stats[frame.name]
        st["calls"] += 1
        st["self_s"] += duration - frame.covered
        self._depth[frame.name] -= 1
        if self._depth[frame.name] == 0:
            # a recursive call's time is already inside the outer one
            st["total_s"] += duration
        if self._stack:
            self._stack[-1].covered += duration
        if frame.span is not None:
            name, _, _, parent, job = self.spans[frame.span]
            self.spans[frame.span] = (name, frame.start, end, parent, job)

    def _inside(self, name: str) -> bool:
        return self._depth[name] > 0

    # -- per-callable counters -------------------------------------------------

    def _count(self, name: str, args, result) -> None:
        st = self.stats[name]
        if name == "algcore.StructureAlgebra._verify_lie":
            n = args[0].dimension
            self.stats["algcore.StructureAlgebra"]["checked_triples"] += n * (n - 1) * (n - 2) // 6
        elif name == "algcore.StructureAlgebra._verify_associative":
            self.stats["algcore.StructureAlgebra"]["checked_triples"] += args[0].dimension ** 3
        elif name == "exactla.RatMatrix":
            st["entries"] += args[0].rows * args[0].cols
        elif name == "exactla.nullspace":
            if self._inside("grading.graded_derivations"):
                self.stats["grading.graded_derivations"]["unknowns"] += args[0].cols
        elif name == "grading._incremental_kernel":
            if self._inside("grading.graded_derivations"):
                gd = self.stats["grading.graded_derivations"]
                gd["degrees_solved"] += 1
                gd["degrees_nonzero"] += result.cols > 0
        elif name == "abgroup.enumerate_homs":
            st["items"] += len(result)
        elif name == "abgroup.enumerate_subgroups":
            st["items"] += len(result)
            if self._inside("afine.enumerate_af_coarsenings"):
                self.stats["afine.enumerate_af_coarsenings"]["candidates"] += len(result)
        elif name == "afine.enumerate_af_coarsenings":
            st["accepted"] += len(result)
        elif name == "afine.is_admissible":
            st["accepted"] += bool(result)

    # -- installation ------------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        tracer = self
        nonsplit = importlib.import_module("gradalg.errors").NonSplitError

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except nonsplit:
                if name == "exactla.semisimple_part":
                    tracer.stats[name]["nonsplit"] += 1
                raise
            finally:
                tracer._exit(frame)
            tracer._count(name, args, result)
            return result

        return traced

    def _wrap_init(self, name: str, init):
        tracer = self

        @wraps(init)
        def traced_init(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                init(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._count(name, args, None)

        return traced_init

    def _wrap_counted(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._count(name, args, result)
            return result

        return counted

    def _wrap_generator(self, name: str, gen):
        tracer = self

        @wraps(gen)
        def traced_gen(*args, **kwargs):
            for item in gen(*args, **kwargs):
                tracer.stats[name]["yields"] += 1
                yield item

        return traced_gen

    def _set(self, owner, attr: str, value) -> None:
        # on a class this is type.__setattr__, which its instance-level
        # immutability guard does not cover
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"gradalg.{m}") for m in MODULES]
        targets = [(mod, attr) for mod, attrs in TRACED.items() for attr in attrs]
        targets.append(("afine", "cartan_candidates"))
        for modname, attr in targets:
            name = f"{modname}.{attr}"
            original = getattr(importlib.import_module(f"gradalg.{modname}"), attr)
            if isinstance(original, type):
                self._set(original, "__init__", self._wrap_init(name, original.__init__))
                continue
            if attr == "cartan_candidates":
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap_function(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)
        for modname, cls, attr in COUNTED:
            owner = importlib.import_module(f"gradalg.{modname}")
            if cls is not None:
                owner = getattr(owner, cls)
            name = ".".join(filter(None, (modname, cls, attr)))
            self._set(owner, attr, self._wrap_counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    # -- output --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_ratio``."""
        out = {}
        for metric in METRICS:
            if metric == "trace.overhead_ratio":
                continue
            mod, attr, stat = metric.split(".")
            name = f"{mod}.{attr}"
            st = self.stats.get(name, {})
            if stat == "useful_ratio":
                solved = st.get("degrees_solved", 0)
                value = st.get("degrees_nonzero", 0) / solved if solved else 0.0
            elif stat == "accept_ratio":
                base = st.get("candidates" if attr == "enumerate_af_coarsenings" else "calls", 0)
                value = st.get("accepted", 0) / base if base else 0.0
            else:
                value = st.get(stat, 0)
            out[metric] = int(value) if METRICS[metric] == "count" else value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
