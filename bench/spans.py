"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces every binding of each public function defined in
an `atlasreg` module, in every `atlasreg` module (and the package namespace)
that binds it, by a wrapper that records a span. A call is therefore seen
whichever module it goes through: `registration.objective`,
`objective.dense_displacement` and `fusion.register` are all wrapped. A span
is named after the function's defining module and name
(`objective.dense_displacement`) and remembers the binding it was called
through (`objective`), so calls of one function from two layers can be told
apart.

Spans live on per-thread stacks, so self time (duration minus the time of
direct children on the same thread) stays right when registrations run on a
thread pool. Spans of one registration share a trace id: a registration
entry point opens a new trace unless it is nested in another one. Each span
also records the tracer's `phase` when it opened (the benchmark sets
"setup" or "timed"), which threads started in that phase inherit through
their calls. Finished spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "atlasreg"
REGISTRATION_ROOTS = frozenset({
    "registration.register", "registration.register_affine", "registration.register_ffd",
})


def _objective_kind(bound: inspect.BoundArguments) -> str:
    return "grad" if bound.arguments.get("with_gradient", True) else "value"


# Functions whose spans carry a suffix derived from the call's arguments.
SPAN_KINDS = {"objective.objective": _objective_kind}


@dataclass
class Span:
    name: str
    binding: str
    trace_id: int
    parent: str | None
    thread: int
    start: float
    phase: str = ""
    end: float = 0.0
    child_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def to_dict(self) -> dict:
        return {"name": self.name, "binding": self.binding, "trace": self.trace_id,
                "parent": self.parent, "thread": self.thread, "phase": self.phase,
                "start": self.start, "total_s": self.total_s, "self_s": self.self_s}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    calls_by_binding: dict[str, int] = field(default_factory=dict)


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") else module_name


def public_bindings(package: str = PACKAGE):
    """(module, attribute, function) for every public package function bound
    in every loaded module of the package, the package namespace included."""
    found = []
    for mod_name in sorted(sys.modules):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        module = sys.modules[mod_name]
        for attr, obj in sorted(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and not obj.__name__.startswith("_")
                    and (obj.__module__ or "").startswith(package)):
                found.append((module, attr, obj))
    return found


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self, clock=time.perf_counter, roots=REGISTRATION_ROOTS):
        self.clock = clock
        self.roots = roots
        self.spans: list[Span] = []
        self.names: set[str] = set()
        self.phase = ""
        self.paused = False
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, binding: str = "") -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        new_trace = parent is None or (
            name in self.roots and not any(s.name in self.roots for s in stack))
        span = Span(name, binding, next(self._trace_ids) if new_trace else parent.trace_id,
                    parent.name if parent else None, threading.get_ident(), self.clock(),
                    self.phase)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        if stack:
            stack[-1].child_s += span.total_s
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, binding: str = ""):
        s = self.open(name, binding)
        try:
            yield s
        finally:
            self.close(s)

    @contextmanager
    def quiet(self):
        """Calls made inside this block record no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str, binding: str):
        kind = SPAN_KINDS.get(name)
        signature = inspect.signature(fn) if kind else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            full = name
            if kind is not None:
                bound = signature.bind(*args, **kwargs)
                full = f"{name}.{kind(bound)}"
            with tracer.span(full, binding):
                return fn(*args, **kwargs)

        return traced

    def install(self, package: str = PACKAGE) -> None:
        for module, attr, fn in public_bindings(package):
            name = f"{_short(fn.__module__)}.{fn.__name__}"
            self.names.add(name)
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, _short(module.__name__)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def summary(self, phase: str | None = None) -> dict[str, LayerStats]:
        """Per span name totals, over the spans of `phase` or over all spans."""
        out: dict[str, LayerStats] = {}
        for s in self.spans:
            if phase is not None and s.phase != phase:
                continue
            st = out.setdefault(s.name, LayerStats())
            st.calls += 1
            st.total_s += s.total_s
            st.self_s += s.self_s
            st.calls_by_binding[s.binding] = st.calls_by_binding.get(s.binding, 0) + 1
        return out
