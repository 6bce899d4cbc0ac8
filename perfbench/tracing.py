"""Spans around every public wugnet function and method, installed from outside.

Layers bind each other's functions by name (`from .lang import parse` in
learner and curriculum, `build_matrix` in tasks and cli), so wrapping
`wugnet.lang.parse` alone would miss most calls. `install` wraps each
public function and method once and rebinds every module attribute in the
wugnet package that refers to it; `uninstall` restores the originals.

Spans live in flat arrays while the run lasts and are written out at its
end. A span's self time is its duration minus the time its child spans
cover; self time summed by module prefix gives the per-layer busy time.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("lang", "curriculum", "learner", "graph", "matrix", "tasks", "charts", "cli")

# Span names that differ from "<module>.<function>". The three graph write
# paths share one name so their calls and time add up.
_ALIASES = {
    "learner.process_generic": "learner.generic",
    "graph.ConceptNetwork.observe_association": "graph.write",
    "graph.ConceptNetwork.assert_generic": "graph.write",
    "graph.ConceptNetwork.set_strength": "graph.write",
    "graph.ConceptNetwork.members_of": "graph.members_of",
    "graph.ConceptNetwork.neighbors": "graph.neighbors",
    "graph.ConceptNetwork.edges": "graph.edges",
    "graph.network_to_text": "graph.to_text",
    "graph.network_from_text": "graph.from_text",
    "matrix.build_matrix": "matrix.build",
    "matrix.agglomerative_order": "matrix.agglomerative",
    "matrix.cosine_similarity": "matrix.cosine",
    "tasks.run_task1": "tasks.task1",
    "tasks.run_task2": "tasks.task2",
    "tasks.run_task3": "tasks.task3",
    "charts.grouped_bar_svg": "charts.svg",
}


def _count_observe(counts, args, report):
    counts["learner.edge_writes"] += len(report.edges)
    counts["learner.nodes_created"] += len(report.created)
    if report.is_generic:
        # inheritance writes are the only non-generic edge writes of a generic
        counts["learner.inherited_edges"] += sum(not w.generic for w in report.edges)


def _count_text(counts, args, text):
    counts["graph.text_bytes"] += len(text.encode("utf-8"))


def _count_instances(counts, args, curriculum):
    counts["curriculum.instances"] += len(curriculum.instances)


def _count_matrix(counts, args, matrix):
    rows, cols = matrix.shape
    counts["matrix.rows"] = max(counts["matrix.rows"], rows)
    counts["matrix.cols"] = max(counts["matrix.cols"], cols)


def _count_checks(counts, args, result):
    counts["tasks.checks_failed"] += sum(not ok for _, ok in result.checks)


_AFTER = {
    "learner.observe": _count_observe,
    "graph.to_text": _count_text,
    "curriculum.generate": _count_instances,
    "matrix.build": _count_matrix,
    "tasks.task1": _count_checks,
    "tasks.task2": _count_checks,
    "tasks.task3": _count_checks,
}


def _cli_span(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """In-memory span store: name id, parent span index, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, qualname: str):
        name = _ALIASES.get(qualname, qualname)
        after = _AFTER.get(name)
        fixed_id = None if qualname == "cli.main" else self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else tracer._name_id(_cli_span(args, kwargs))
            i = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(tracer._open[-1] if tracer._open else -1)
            tracer.ends.append(0.0)
            tracer._open.append(i)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = perf_counter()
                tracer._open.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Wrap every public function and method of the wugnet layers."""
        wrappers: dict[object, object] = {}
        for short in MODULES:
            module = sys.modules[f"wugnet.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(value, f"{short}.{attr}")
                elif inspect.isclass(value):
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._set(value, method, self._wrap(fn, f"{short}.{attr}.{method}"))
        for name, module in list(sys.modules.items()):
            if name != "wugnet" and not name.startswith("wugnet."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 start=np.frombuffer(self.starts, dtype=np.float64),
                 end=np.frombuffer(self.ends, dtype=np.float64))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer figures BENCHMARK.json lists, as (value, unit)."""
    totals = tracer.totals()

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    out: dict[str, tuple[float, str]] = {}
    for name in ("lang.tokenize", "lang.parse", "graph.write", "graph.members_of",
                 "graph.neighbors", "graph.edges", "matrix.cosine", "matrix.category_vector"):
        out[f"{name}.calls"] = (get(name)[0], "count")
        out[f"{name}.s"] = (get(name)[1], "s")
    for name in ("learner.observe", "learner.generic"):
        out[f"{name}.calls"] = (get(name)[0], "count")
        out[f"{name}.self_s"] = (get(name)[2], "s")
    for name in ("curriculum.generate", "graph.to_text", "graph.from_text", "matrix.build",
                 "matrix.agglomerative", "tasks.task1", "tasks.task2", "tasks.task3",
                 "charts.svg", "cli.learn", "cli.run-task", "cli.export"):
        out[f"{name}.s"] = (get(name)[1], "s")
    for name in ("curriculum.instances", "learner.edge_writes", "learner.inherited_edges",
                 "learner.nodes_created", "matrix.rows", "matrix.cols", "tasks.checks_failed"):
        out[name] = (tracer.counts[name], "count")
    out["graph.text_bytes"] = (tracer.counts["graph.text_bytes"], "bytes")
    for module in MODULES:
        own = sum(t[2] for n, t in totals.items() if n.split(".")[0] == module)
        out[f"{module}.self_s"] = (own, "s")
    out["trace.spans"] = (len(tracer.starts), "count")
    return out
