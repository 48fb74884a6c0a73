"""Spans around the package's public functions, recorded from outside.

A :class:`Tracer` replaces a function at the module attribute where its
caller looks it up (``mpcc_cert.cones.lp_solve`` is the binding
``polar_branch_membership`` calls) with a wrapper that records one span:
name, start, end, parent span and an optional note about the result.
Spans stay in memory until :meth:`Tracer.write`.  The span name's first
component is the package module (the layer) the function belongs to.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, NOTE = range(5)
RAISED = object()  # what a note sees as the result of a call that raised


def _vertex_count(args, out):
    return int(args[0].vertices.shape[0])


def _infeasible(args, out):
    return "infeasible" if out is None else None


# (module, attribute looked up by the caller, span name, note on the result)
TARGETS = (
    ("mpcc_cert.stationarity", "certify_m_stationarity", "stationarity.certify", None),
    ("mpcc_cert.cli", "certify_m_stationarity", "stationarity.certify", None),
    ("mpcc_cert.stationarity", "check_feasibility", "model.check_feasibility", None),
    ("mpcc_cert.model", "check_feasibility", "model.check_feasibility", None),
    ("mpcc_cert.stationarity", "classify_indices", "model.classify_indices", None),
    ("mpcc_cert.problemfile", "evaluate_affine", "model.evaluate_affine", None),
    ("mpcc_cert.stationarity", "polar_branch_membership", "cones.branch_lp", _infeasible),
    ("mpcc_cert.cones", "lp_solve", "solvers.lp_solve", None),
    ("mpcc_cert.oracle", "lp_solve", "solvers.lp_solve", None),
    ("mpcc_cert.solvers", "lp_solve", "solvers.lp_solve", None),
    ("mpcc_cert.solvers", "lp_feasible", "solvers.lp_feasible", None),
    ("mpcc_cert.stationarity", "min_norm_point", "solvers.min_norm_point", _vertex_count),
    ("mpcc_cert.stationarity", "schinabeck_combine", "stationarity.schinabeck_combine", None),
    ("mpcc_cert.stationarity", "check_stationarity_system",
     "stationarity.check_stationarity_system", None),
    ("mpcc_cert.cli", "oracle_m_exists", "oracle.oracle_m_exists", None),
    ("mpcc_cert.cli", "load_problem", "problemfile.load_problem", None),
    ("mpcc_cert.cli", "certificate_report", "report.certificate_report", None),
    ("mpcc_cert.cli", "oracle_section", "report.oracle_section", None),
    ("mpcc_cert.cli", "build_parser", "cli.build_parser", None),
    ("mpcc_cert.cli", "_emit", "cli.emit", None),
    ("mpcc_cert.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, note]
        self._stack = []

    def wrap(self, fn, name, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(sid)
            out = RAISED
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][END] = clock()
                if note is not None:
                    spans[sid][NOTE] = note(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, note in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """One JSON array per line: name, start, end, parent, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, roots) -> dict:
    """Aggregate the spans under the given root spans.

    Returns per span name: ``calls``, ``ms`` (summed duration) and
    ``self_ms`` (duration minus direct children); per layer ``L``:
    ``L.ms`` (time inside the layer, nested calls counted once) and
    ``L.self_ms``; and the derived counts the benchmark reports.
    """
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(sid)
    stats = defaultdict(float)
    todo = list(roots)
    while todo:
        sid = todo.pop()
        span = spans[sid]
        kids = children[sid]
        todo.extend(kids)
        name, dur = span[NAME], 1000.0 * (span[END] - span[START])
        self_ms = dur - sum(1000.0 * (spans[k][END] - spans[k][START]) for k in kids)
        stats[name + ".calls"] += 1
        stats[name + ".ms"] += dur
        stats[name + ".self_ms"] += self_ms
        parent_name = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        if layer(parent_name) != layer(name):
            stats[layer(name) + ".ms"] += dur
        stats[layer(name) + ".self_ms"] += self_ms
        if name == "solvers.min_norm_point":
            stats[name + ".vertices"] += span[NOTE]
            stats[name + ".cold_starts"] += sum(
                spans[k][NAME] == "solvers.lp_feasible" for k in kids)
        elif name == "cones.branch_lp" and span[NOTE] == "infeasible":
            stats[name + ".infeasible"] += 1
        elif name == "solvers.lp_solve" and layer(parent_name) == "oracle":
            stats["oracle.lp_solve.calls"] += 1
        elif name == "stationarity.certify":
            decided = False
            for k in sorted(kids, key=lambda k: spans[k][START]):
                if spans[k][NAME] != "cones.branch_lp":
                    continue
                if decided:
                    stats["cones.branch_lp.after_decided"] += 1
                decided = decided or spans[k][NOTE] == "infeasible"
    return stats
