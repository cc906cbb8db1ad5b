"""Outside-in tracer: wraps the library's public callables from outside.

``Tracer.install`` replaces each callable in ``PATCHES`` with a wrapper that
records a span (name, start, end, parent, request) in memory, and
``Tracer.uninstall`` puts the originals back.  Names bound by
``from ... import`` are patched where they are bound (``reach.ts_exp``,
``reach.simulate``, ``reach.is_positive``, ``system.ts_exp``), and the
``scipy.linalg.expm`` kernel is patched in ``scipy.linalg`` itself, so
``matrices.expm`` counts every dense exponential, including those inside
``expm_integral``.
"""

import time
from typing import NamedTuple

import scipy.linalg

from chronos import cli, descriptors, exponential, matrices, reach, system, timescale

#: (owner, attribute, span name).  Several owners may share a span name.
PATCHES = (
    (cli, "main", "cli.main"),
    (timescale.TimeScale, "partition", "timescale.partition"),
    (exponential, "ts_exp", "exponential.ts_exp"),
    (reach, "ts_exp", "exponential.ts_exp"),
    (system, "ts_exp", "exponential.ts_exp"),
    (scipy.linalg, "expm", "matrices.expm"),
    (matrices, "expm_integral", "matrices.expm_integral"),
    (matrices, "monomial_index", "matrices.monomial_index"),
    (matrices, "is_monomial", "matrices.is_monomial"),
    (matrices, "rank", "matrices.rank"),
    (system, "is_positive", "system.is_positive"),
    (reach, "is_positive", "system.is_positive"),
    (reach, "simulate", "system.simulate_back"),
    (system, "simulate", "system.simulate_request"),
    (reach, "analyze_system", "reach.analyze"),
    (reach, "decide_positive_reachability", "reach.decide"),
    (reach, "gram", "reach.gram"),
    (reach, "synthesize_control", "reach.synthesize"),
    (descriptors, "load_json", "descriptors.parse"),
    (descriptors, "system_from_obj", "descriptors.parse"),
    (descriptors, "control_from_obj", "descriptors.parse"),
    (descriptors, "analysis_to_obj", "descriptors.report"),
    (descriptors, "jdumps", "descriptors.report"),
    (descriptors, "write_trajectory_csv", "descriptors.csv"),
)


class Decision(NamedTuple):
    reachable: bool
    targets: int
    dense_substeps: int
    worst_residual: float


def _decision_note(rep):
    targets = rep.targets or ()
    worst = max((t.residual for t in targets), default=0.0)
    return Decision(rep.reachable, len(targets), rep.dense_substeps or 0, worst)


#: Span name -> function of the call's result kept on the span as ``note``.
NOTES = {
    "timescale.partition": len,
    "system.simulate_request": lambda traj: int(traj.times.shape[0]),
    "reach.decide": _decision_note,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_s", "note")

    def __init__(self, name, start, parent, request):
        self.name, self.start, self.parent, self.request = name, start, parent, request
        self.end = start
        self.child_s = 0.0
        self.note = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans of every patched call made while installed."""

    def __init__(self):
        self.spans = []
        self.request = None  # identifier shared by the spans of one request
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start

        return traced

    def install(self):
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
