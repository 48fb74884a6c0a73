"""The traced benchmark run wraps package functions at named bindings.

``certbench/tracing.py`` lists them as (module, attribute) pairs in
``TARGETS``; a binding that no longer resolves breaks the traced run.
The file is read and executed here without importing it as a module,
so nothing is written next to it.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "certbench" / "tracing.py"


def test_every_traced_binding_resolves():
    namespace = {"__name__": "certbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
