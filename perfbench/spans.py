"""Spans around qnpe's layer entry points, recorded from outside the package.

`installed(tracer)` rebinds the module-level names that qnpe's own callers
look up at call time, so every call into a layer opens a span whose parent
is the span open at that moment:

    qnpe.solver.backtrack             -> linesearch
    qnpe.linesearch.conjugate_residual -> linsolve
    qnpe.learner.ext_evec_exact/_lanczos -> extevec
    HessianLearner.predict/update_round -> learner.predict / learner.update
    qnpe.solver.solve                 -> problems.bootstrap

`qnpe.cli` binds `solve` at import, so the last wrapper only sees the solve
that `make_logistic` runs to bootstrap its minimizer; the layer spans beneath
it therefore belong to set-up, not to the measured solve. Gradient and value
oracles are wrapped per objective with `traced_objective`.

A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Optional

import qnpe.learner
import qnpe.linesearch
import qnpe.solver
from qnpe import HessianLearner, Objective, lanczos_budget


@dataclasses.dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Keeps closed spans in memory; `take` hands them over and resets."""

    def __init__(self):
        self.closed: list[Span] = []
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, time.perf_counter())
        self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.closed.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(span, args, result)` fills its counters."""

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if count is not None:
                count(span, args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        spans, self.closed = self.closed, []
        return spans


def _count_linesearch(span, args, outcome):
    span.counts["attempts"] = outcome.ls_steps


def _count_linsolve(span, args, result):
    span.counts["matvecs"] = result.matvecs


def _count_extevec(span, args, outcome):
    span.counts["matvecs"] = outcome.matvecs
    span.counts["outside"] = int(not outcome.inside)


def _count_lanczos(span, args, outcome):
    _count_extevec(span, args, outcome)
    w, delta, q = args[:3]
    span.counts["steps"] = outcome.matvecs
    span.counts["budget"] = lanczos_budget(w.shape[0], delta, q).n_iters


@contextmanager
def installed(tracer: Tracer):
    """Route qnpe's layer calls through `tracer` until the block exits."""
    patches = [
        (qnpe.solver, "backtrack", "linesearch", _count_linesearch),
        (qnpe.linesearch, "conjugate_residual", "linsolve", _count_linsolve),
        (qnpe.learner, "ext_evec_exact", "extevec", _count_extevec),
        (qnpe.learner, "ext_evec_lanczos", "extevec", _count_lanczos),
        (HessianLearner, "predict", "learner.predict", None),
        (HessianLearner, "update_round", "learner.update", None),
        (qnpe.solver, "solve", "problems.bootstrap", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, count in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def traced_objective(obj: Objective, tracer: Tracer) -> Objective:
    """Copy of `obj` whose gradient and value oracles open spans."""
    value = obj.value and tracer.wrap("problems.value", obj.value)
    return dataclasses.replace(
        obj, grad=tracer.wrap("problems.grad", obj.grad), value=value
    )


def fold(spans: list[Span]) -> dict:
    """Totals per root: for each root name, a Counter of `<name>.calls`,
    `.busy_s`, `.self_s` and each counter of the spans beneath that root."""
    totals = defaultdict(Counter)
    for span in spans:
        tally = totals[span.root().name]
        tally[f"{span.name}.calls"] += 1
        tally[f"{span.name}.busy_s"] += span.duration
        tally[f"{span.name}.self_s"] += span.duration - span.child_s
        for key, value in span.counts.items():
            tally[f"{span.name}.{key}"] += value
    return totals
