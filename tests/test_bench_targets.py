"""Every function the benchmark traces still exists where it is looked up.

``perfbench`` wraps public koopnf functions by module and qualified name and
reports a metric missing when a lookup fails; this keeps a rename or move
from surfacing only in the benchmark's own self-test.
"""

import importlib
from pathlib import Path

import koopnf  # noqa: F401  (loads every koopnf module the targets name)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    missing = [f"{t.module}.{t.qualname}" for t in layers.TARGETS
               if tracer.resolve(t.module, t.qualname) is None]
    assert layers.TARGETS
    assert missing == []
