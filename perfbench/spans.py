"""In-memory call spans around thermotele's public functions.

The recorder replaces a public name in the namespace of the module that
calls it, so calls made inside the library are timed without editing it.
Each span keeps its name, start, end, parent span and the run id (the
set-up phase or one workload repetition) it belongs to.  Spans stay in
memory until the traced process writes them out.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module whose namespace is patched, attribute) for every traced name.
# A name is patched where its caller looks it up: run_sweep calls
# evaluate_point through the sweeps namespace, default_reconciliation
# calls reconcile_conventions through the closed_form one, and so on.
TRACED_NAMES = (
    ("sweeps", "reproduce_figure"),
    ("sweeps", "run_sweep"),
    ("sweeps", "evaluate_point"),
    ("sweeps", "HarmonicAverages"),
    ("sweeps", "thermal_state"),
    ("sweeps", "reconciled_det_optimal"),
    ("sweeps", "reconciled_prob_optimal"),
    ("sweeps", "reconciled_pair_rate"),
    ("closed_form", "default_reconciliation"),
    ("closed_form", "reconcile_conventions"),
    ("closed_form", "average_all"),
    ("closed_form", "thermal_state"),
    ("classical_limit", "verify_classical_bound"),
    ("classical_limit", "oracle_det_optimum"),
    ("classical_limit", "HarmonicAverages"),
    ("classical_limit", "random_separable_channel"),
)

# layer names as reported, "<defining module>.<name>", sorted
LAYERS = (
    "averaging.HarmonicAverages",
    "averaging.average_all",
    "classical_limit.oracle_det_optimum",
    "classical_limit.random_separable_channel",
    "classical_limit.verify_classical_bound",
    "closed_form.default_reconciliation",
    "closed_form.reconcile_conventions",
    "closed_form.reconciled_det_optimal",
    "closed_form.reconciled_pair_rate",
    "closed_form.reconciled_prob_optimal",
    "spin_models.thermal_state",
    "sweeps.evaluate_point",
    "sweeps.reproduce_figure",
    "sweeps.run_sweep",
)

SETUP_RUN = "setup"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def layer_name(fn) -> str:
    """``thermotele.spin_models.thermal_state`` -> ``spin_models.thermal_state``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class SpanRecorder:
    """Collects nested spans; ``run_id`` tags the spans opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = SETUP_RUN
        self._open: list[int] = []

    def wrap(self, fn):
        name = layer_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, perf_counter(), 0.0, parent, self.run_id)
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def patched(self, modules: dict):
        """Replace each name in TRACED_NAMES by its traced wrapper, and put
        every original back on exit."""
        saved = []
        try:
            for module_name, attr in TRACED_NAMES:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_rows(self) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans
        ]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the part
    of the interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, reps: int) -> dict:
    """Per-layer ``calls``, ``total_s`` and ``self_s`` for one set-up plus
    one workload repetition: set-up spans count once and the spans of the
    ``reps`` timed repetitions are averaged."""
    sums = {name: [0.0, 0.0, 0.0] for name in LAYERS}
    for s, self_s in zip(spans, self_times(spans)):
        if s.name not in sums:
            continue
        share = 1.0 if s.run_id == SETUP_RUN else 1.0 / reps
        acc = sums[s.name]
        acc[0] += share
        acc[1] += share * (s.end - s.start)
        acc[2] += share * self_s
    out = {}
    for name, (calls, total, own) in sums.items():
        out[f"{name}.calls"] = round(calls, 6)
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = own
    return out


def covered_seconds(spans, run_ids) -> float:
    """Wall time inside root spans (those without a parent) of the given runs."""
    return sum(
        s.end - s.start
        for s in spans
        if s.parent is None and s.run_id in run_ids
    )
