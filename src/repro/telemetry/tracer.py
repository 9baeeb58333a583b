"""Scoped trace spans over the solver stack.

One process-wide tracer slot (:data:`ACTIVE`).  When it is empty —
the default — every instrumentation site in the engine reduces to a
single module-attribute read followed by a ``None`` check: no span
objects, no dicts, no clock reads are ever allocated on the untraced
path (the tier-1 wall-time guard in ``tests/telemetry`` pins this).
When a :class:`Tracer` is installed, the engine emits nested
:class:`Span` records — cheap dataclass-style appends — that
reconstruct the full solve tree: ``plan`` → ``solve`` → ``dc_solve`` →
``newton_solve`` → ``assembly``/``factorization`` leaves, with
per-iteration convergence records on every Newton span.

Two detail levels keep the overhead proportional to what the caller
asked for:

* ``detail="plans"`` records only the cheap outer scopes (``plan``,
  ``solve``, ``ac_sweep``, ``transient``) with their counter deltas —
  what ``python -m repro --bench`` installs to attribute counters to
  individual plans without perturbing the measured wall times;
* ``detail="full"`` additionally records ``dc_solve``/``newton_solve``
  spans, per-iteration convergence traces (residual norm, step norm,
  damping, the LU reuse-vs-refactor decision and the guard that made
  it) and ``assembly``/``factorization``/``ac_point``/
  ``transient_step`` leaves — what the CLI's ``--trace FILE`` installs.

Counter deltas: every non-leaf span snapshots the process
:data:`repro.spice.stats.STATS` on entry and stores the (non-zero)
difference on exit, so a span carries exactly the solver work done
inside it and sibling spans' deltas sum to their parent's.

Cross-process merging: a pool worker's spans are exported with
:meth:`Tracer.export` (plain nested dicts, picklable), ride home in the
supervised pool envelope (:mod:`repro.parallel`) and are grafted into
the submitter's tracer with :meth:`Tracer.graft`, so fanned and serial
runs report identical telemetry trees (wall times and the
``worker_pid`` attribute aside).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _stats():
    # Imported lazily so the telemetry package never participates in the
    # repro.spice import graph (spice modules import telemetry, not the
    # other way around at module scope).
    from ..spice.stats import STATS

    return STATS


class Span:
    """One traced scope: name, wall-time window, attributes, children.

    ``iterations`` holds the per-iteration convergence records of a
    ``newton_solve`` span (dicts with ``i``/``residual``/``step``/
    ``damping``/``kind``/``guard`` keys); ``counters`` holds the
    non-zero :data:`~repro.spice.stats.STATS` deltas accumulated while
    the span was open (leaf spans skip the snapshot — their cost is
    visible in the enclosing Newton span's delta).
    """

    __slots__ = (
        "name", "t_start", "t_end", "attrs", "counters", "iterations",
        "children", "_counters_enter",
    )

    def __init__(self, name: str, t_start: float, attrs: Dict[str, object]):
        self.name = name
        self.t_start = t_start
        self.t_end = t_start
        self.attrs = attrs
        self.counters: Dict[str, object] = {}
        self.iterations: List[Dict[str, object]] = []
        self.children: List["Span"] = []
        self._counters_enter: Optional[Dict[str, object]] = None

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        """Picklable/JSON-ready nested snapshot of this span."""
        out = {
            "span": self.name,
            "t_start_s": self.t_start,
            "dur_s": self.duration_s,
            "attrs": dict(self.attrs),
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.iterations:
            out["iterations"] = [dict(record) for record in self.iterations]
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["span"], data.get("t_start_s", 0.0), dict(data.get("attrs", {})))
        span.t_end = span.t_start + data.get("dur_s", 0.0)
        span.counters = dict(data.get("counters", {}))
        span.iterations = [dict(r) for r in data.get("iterations", [])]
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span


class Tracer:
    """Collects a forest of :class:`Span` trees for one traced run."""

    def __init__(
        self,
        detail: str = "full",
        clock: Optional[Callable[[], float]] = None,
    ):
        if detail not in ("full", "plans"):
            raise ValueError(f"unknown tracer detail {detail!r}")
        self.detail = detail
        self.clock = clock if clock is not None else time.perf_counter
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @property
    def detailed(self) -> bool:
        """True when solver-internal spans and per-iteration records are on."""
        return self.detail == "full"

    # -- recording -----------------------------------------------------
    def begin(self, name: str, **attrs) -> Span:
        """Open a span (with a counter snapshot) and make it current."""
        span = Span(name, self.clock(), attrs)
        span._counters_enter = _stats().snapshot()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close a span; tolerant of dropped descendants (an exception
        that aborted a nested scope truncates back to this span)."""
        if span in self._stack:
            del self._stack[self._stack.index(span):]
        span.t_end = self.clock()
        if span._counters_enter is not None:
            delta = _stats().delta_since(span._counters_enter)
            span.counters = {key: value for key, value in delta.items() if value}
            span._counters_enter = None

    @contextmanager
    def span(self, name: str, **attrs):
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def leaf(self, name: str, t_start: float, **attrs) -> None:
        """Record an already-finished leaf scope (no counter snapshot):
        the caller reads ``tracer.clock()`` before the work and hands
        the start time here after it."""
        span = Span(name, t_start, attrs)
        span.t_end = self.clock()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the current span (no-op at top level)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def iteration(self, **record) -> None:
        """Append a per-iteration convergence record to the current span."""
        if self._stack:
            self._stack[-1].iterations.append(record)

    # -- cross-process merge -------------------------------------------
    def export(self) -> List[dict]:
        """The root spans as picklable nested dicts."""
        return [span.to_dict() for span in self.roots]

    def graft(self, exported: List[dict], worker_pid: Optional[int] = None) -> None:
        """Attach a worker's exported spans under the current span (or as
        roots).  Grafted spans keep the worker's clock origin; the
        ``worker_pid`` attribute marks where they came from."""
        for data in exported:
            span = Span.from_dict(data)
            if worker_pid is not None:
                span.attrs.setdefault("worker_pid", worker_pid)
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)

    def span_count(self) -> int:
        """Total spans recorded (the whole forest)."""

        def count(span: Span) -> int:
            return 1 + sum(count(child) for child in span.children)

        return sum(count(span) for span in self.roots)


#: The installed tracer, or None.  Instrumentation sites read this
#: attribute directly (``_tele.ACTIVE``) so the untraced path costs one
#: attribute load and a None check.
ACTIVE: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None, detail: str = "full") -> Tracer:
    """Install (and return) a tracer as the process-wide active one."""
    global ACTIVE
    if tracer is None:
        tracer = Tracer(detail=detail)
    ACTIVE = tracer
    return tracer


def uninstall_tracer() -> Optional[Tracer]:
    """Clear the active tracer; returns the one that was installed."""
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    return tracer


@contextmanager
def tracing(detail: str = "full", clock: Optional[Callable[[], float]] = None):
    """Install a fresh tracer for the block, restoring the previous one
    on exit (a pool worker records each attempt's spans into one)."""
    global ACTIVE
    previous = ACTIVE
    tracer = Tracer(detail=detail, clock=clock)
    ACTIVE = tracer
    try:
        yield tracer
    finally:
        ACTIVE = previous
