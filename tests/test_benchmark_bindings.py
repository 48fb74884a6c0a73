"""The traced benchmark run wraps package functions at named bindings.

``certbench/tracing.py`` lists them as (module, attribute) pairs in
``TARGETS``; a binding that no longer resolves breaks the traced run.
The file is read and executed here without importing it as a module,
so nothing is written next to it.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import mpcc_cert.solvers
from mpcc_cert import MinNormProblem, min_norm_point

TRACING = Path(__file__).resolve().parents[1] / "certbench" / "tracing.py"


def test_every_traced_binding_resolves():
    namespace = {"__name__": "certbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


@pytest.mark.parametrize("vertices, cold_starts", [
    ([[-1.0, 2.0], [2.0, -1.0]], 1),  # no vertex meets both signs
    ([[-1.0, 2.0], [2.0, 1.0]], 0),   # the second one does
])
def test_cold_starts_go_through_the_solvers_binding(monkeypatch, vertices, cold_starts):
    # the traced run counts min_norm_point's cold starts as lp_feasible
    # spans under it, wrapped at mpcc_cert.solvers.lp_feasible
    calls = []
    real = mpcc_cert.solvers.lp_feasible

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpcc_cert.solvers, "lp_feasible", counting)
    assert min_norm_point(MinNormProblem(np.array(vertices), (0, 1))) is not None
    assert len(calls) == cold_starts
