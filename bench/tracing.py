"""Spans around the benchmark's calls into fdnoma, and a counter at the
fdnoma/scipy boundary.

Nothing here imports fdnoma.  ``QuadProbe`` must replace
``scipy.integrate.quad`` before fdnoma is imported, so that the name
``quad`` that ``fdnoma.analytic`` binds at import time is the probe.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

QUAD_SPAN = "scipy.integrate.quad"


class Span:
    """One timed call: its index in the run, name, start and end (ns),
    parent span index and workload-point id.  ``quad`` is the number of quad calls made inside
    it; ``error`` and ``detail`` name the exception when the call raised."""

    __slots__ = ("index", "name", "start", "end", "parent", "point", "quad", "error", "detail")

    def __init__(self, index, name, start, parent, point):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.point = point
        self.quad = 0
        self.error = None
        self.detail = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Recorder:
    """Keeps the spans of one benchmark run in memory.

    Every call the benchmark makes into fdnoma gets a span in both modes,
    since the end-to-end latencies are read from them.  With ``trace``
    on, the quad probe also records a span per quad call, nested under
    the call that made it; those are what tracing adds.  Spans are only
    recorded on the thread that created the recorder.
    """

    def __init__(self, probe: "QuadProbe", trace: bool):
        self.probe = probe
        self.trace = trace
        self.spans: list[Span] = []
        self.point = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = Span(sid, name, 0, self._stack[-1] if self._stack else None, self.point)
        self.spans.append(rec)
        self._stack.append(sid)
        q0 = self.probe.calls
        rec.start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            rec.quad = self.probe.calls - q0
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; return ``(value, span)``.

        An exception is recorded on the span (``value`` is then None):
        the benchmark counts it as a failed operation and carries on.
        """
        with self.span(name) as rec:
            try:
                return fn(*args, **kwargs), rec
            except Exception as exc:  # every failure is counted, none stops the run
                rec.error = type(exc).__name__
                rec.detail = str(exc)[:300]
                return None, rec

    def on_own_thread(self) -> bool:
        return threading.get_ident() == self._thread


class QuadProbe:
    """Stands in for ``scipy.integrate.quad``: counts every call and, when
    a tracing recorder is attached, records a span around it."""

    def __init__(self, quad):
        self._quad = quad
        self._lock = threading.Lock()
        self.calls = 0
        self.recorder: Recorder | None = None

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        rec = self.recorder
        if rec is None or not rec.trace or not rec.on_own_thread():
            return self._quad(*args, **kwargs)
        with rec.span(QUAD_SPAN):
            return self._quad(*args, **kwargs)


def install_quad_probe() -> QuadProbe:
    """Replace ``scipy.integrate.quad`` by a probe; call before importing fdnoma."""
    import scipy.integrate

    probe = QuadProbe(scipy.integrate.quad)
    scipy.integrate.quad = probe
    return probe


def self_time_summary(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds.  Self time is a
    span's duration minus the time its direct children cover; spans of
    one thread nest, so children never overlap.  ``spans`` must hold the
    children of every span in it."""
    child: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0) + s.end - s.start
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (s.end - s.start) * 1e-9
        row["self_s"] += (s.end - s.start - child.get(s.index, 0)) * 1e-9
    return out


def spans_to_json(spans: list[Span]) -> dict:
    """Columnar span table: names are indexed once, times are ns."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [
        [index[s.name], s.start, s.end, s.parent, s.point, s.quad, s.error]
        for s in spans
    ]
    return {
        "names": names,
        "columns": ["name", "start_ns", "end_ns", "parent", "point", "quad_calls", "error"],
        "spans": rows,
    }
