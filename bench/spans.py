"""Span tracing for the benchmark, recorded from outside the package.

`Tracer.install()` replaces each traced public name of gmanova with a
wrapper that records one span per call: name, start, end, parent span,
thread and whether the call raised.  A function imported by name into other
modules (``trace_test`` binds ``build_projections``, ``cli`` binds
``run_test`` ...) is replaced at every binding site, found by identity over
every loaded ``gmanova`` module; `unwrapped_bindings` proves none is left.
Methods are replaced on their class, which every binding shares.

Spans stay in memory.  A span opened in a thread with no open span of its
own (a Monte Carlo worker) takes as parent the span open in the thread that
installed the tracer, which is blocked in the pool while the workers run.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

# span name -> (defining module, attribute names); each name is wrapped at
# every module attribute that holds the same object.
FUNCTION_SPANS = {
    "design.build_projections": ("gmanova.design", ("build_projections",)),
    "design.projector": ("gmanova.design", ("projector",)),
    "design.hypothesis_projector": ("gmanova.design", ("hypothesis_projector",)),
    "design.row_compressor": ("gmanova.design", ("row_compressor",)),
    "design.build_omega": ("gmanova.design", ("build_omega",)),
    "io.load_dataset": ("gmanova.io", ("load_dataset",)),
    "io.write_report": ("gmanova.io", ("write_report",)),
    "scenarios.build": ("gmanova.scenarios", ("one_way_manova", "two_way_manova",
                                              "profile_parallelism", "growth_curve")),
    "estimators.estimate_variance": ("gmanova.estimators", ("estimate_variance",)),
    "estimators.group_residual_scatter": ("gmanova.estimators", ("group_residual_scatter",)),
    "estimators.group_projector": ("gmanova.estimators", ("group_projector",)),
    "estimators.tau_coefficients": ("gmanova.estimators", ("tau_coefficients",)),
    "trace_test.run_test": ("gmanova.trace_test", ("run_test",)),
    "trace_test.statistic_t": ("gmanova.trace_test", ("statistic_t",)),
    "trace_test.assumption_diagnostics": ("gmanova.trace_test", ("assumption_diagnostics",)),
    "trace_test.sigma_full": ("gmanova.trace_test", ("sigma_full",)),
    "simulate.calibrate_signal_ray": ("gmanova.simulate", ("calibrate_signal_ray",)),
    "simulate.monte_carlo": ("gmanova.simulate", ("monte_carlo",)),
    "cli.main": ("gmanova.cli", ("main",)),
}

# span name -> (defining module, class, method)
METHOD_SPANS = {
    "trace_test.engine_init": ("gmanova.trace_test", "TraceTestEngine", "__init__"),
    "trace_test.statistics": ("gmanova.trace_test", "TraceTestEngine", "statistics"),
    "simulate.sample": ("gmanova.simulate", "ErrorDistribution", "sample"),
}

SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    failed: bool = False
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gmanova" or name.startswith("gmanova."))]


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner = None
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._originals: list[object] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._owner_stack[-1] if tracer._owner_stack else None
            span = Span(name, time.perf_counter(), parent, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
                if parent is not None:
                    tracer.spans[parent].children.append(index)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        import gmanova.cli  # noqa: F401  (with the package, loads io and oracle)

        self._owner = threading.get_ident()
        modules = _package_modules()
        for name, (module_name, attrs) in FUNCTION_SPANS.items():
            home = sys.modules[module_name]
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                self._originals.append(original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)
        for name, (module_name, cls_name, method) in METHOD_SPANS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._originals.append(original)
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self._owner = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes still bound to an original while installed."""
        originals = {id(o) for o in self._originals}
        return [f"{m.__name__}.{key}" for m in _package_modules()
                for key, value in vars(m).items() if id(value) in originals]

    def self_time(self, index: int) -> float:
        """Span duration minus the part of its interval that its children
        cover (the union of their intervals, clipped to the span)."""
        span = self.spans[index]
        covered, reach = 0.0, span.start
        for lo, hi in sorted((self.spans[c].start, self.spans[c].end)
                             for c in span.children):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def layer_ancestor(self, index: int) -> bool:
        """Whether some ancestor span belongs to the same layer."""
        layer = self.spans[index].name.split(".")[0]
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name.split(".")[0] == layer:
                return True
            parent = self.spans[parent].parent
        return False
