"""Span tracer that wraps public koopnf functions from outside the package.

Each traced function is looked up once, by module and qualified name, and
every binding of that function object in a loaded ``koopnf`` module (or on
its class, for methods) is replaced by a wrapper for the duration of a
``with Tracer(...)`` block.  Rebinding by identity matters because several
modules import functions by name: ``cli`` holds its own ``run``,
``residual_study`` and ``density_demo``, and ``observables`` holds its own
``tau_inverse_pointwise``.

A span's self time is its duration minus the time covered by its direct
child spans.  Spans are aggregated in memory per name; edges count how
often a span ran directly under another one.  Hot helpers such as
``grlex_key`` or ``linf`` are deliberately not traced: wrapping them adds
hundreds of thousands of spans per solve.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Target(NamedTuple):
    """One traced function: span name, defining module and qualified name.

    ``counter(counts, args, result)``, if given, runs after each call outside
    the span's timing and adds work counts to the span's ``counts``.
    """

    span: str
    module: str
    qualname: str
    counter: Callable | None = None


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "failed", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.counts: dict[str, int] = defaultdict(int)


def resolve(module_name: str, qualname: str):
    """The function object defined at ``module_name.qualname``, or None."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner, *rest = qualname.split(".")
    obj = vars(module).get(owner)
    if rest:
        obj = vars(obj).get(rest[0]) if isinstance(obj, type) else None
    if not callable(obj) or getattr(obj, "__module__", None) != module_name:
        return None
    return obj


class Tracer:
    """Collects spans for a fixed list of targets while installed."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "koopnf" or name.startswith("koopnf."))]
        for target in self.targets:
            fn = resolve(target.module, target.qualname)
            if fn is None:
                self.missing.add(target.span)
                continue
            self.stats.setdefault(target.span, SpanStats())
            wrapper = self._wrap(target, fn)
            if "." in target.qualname:  # a method: rebind it on its class
                owners = [vars(sys.modules[target.module])[target.qualname.split(".")[0]]]
            else:
                owners = modules
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patches.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def _wrap(self, target: Target, fn):
        name = target.span
        stat = self.stats[name]
        counter = target.counter
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges[(parent[0], name)] += 1
            if counter is not None:
                counter(stat.counts, args, result)
            return result

        return wrapper

    def self_total(self) -> float:
        """Sum of self time over every span: the traced time the spans cover."""
        return sum(s.self_s for s in self.stats.values())
